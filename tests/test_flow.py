import numpy as np
import pytest

from corrugate.errors import (
    CorrugateError,
    DivergenceError,
    InputError,
    NonconvergenceError,
)
from corrugate.flow import (
    FlowConfig,
    FlowSample,
    FlowState,
    eval_h,
    eval_hdot,
    flow_rhs,
    psi_ramp,
    psi_ramp_derivative,
    run_flow,
    tracked_quantities,
)
from corrugate.grid import MetricField, PeriodicGrid, pullback_metric, sup_norm
from corrugate.leastnorm import is_free
from corrugate.smoothing import smooth, smooth_eps_derivative

from conftest import unit_circle_map


def circle_setup(res=256):
    grid = PeriodicGrid((res,))
    return grid, unit_circle_map(grid, ambient=2)


def metric(grid, values):
    return MetricField(grid, np.asarray(values)[..., None])


class TestPsiRamp:
    def test_zero_on_negatives(self):
        assert psi_ramp(-1.0) == 0.0
        assert psi_ramp(0.0) == 0.0

    def test_one_beyond_width(self):
        assert psi_ramp(2.0) == 1.0
        assert psi_ramp(1.0) == 1.0

    def test_odd_symmetric_midpoint(self):
        assert psi_ramp(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_and_c2(self):
        s = np.linspace(-0.5, 1.5, 400)
        vals = psi_ramp(s)
        assert np.all(np.diff(vals) >= -1e-15)
        # derivative vanishes at both ends (C^2 matching)
        assert psi_ramp_derivative(0.0) == 0.0
        assert psi_ramp_derivative(1.0) == 0.0


class TestFlowRhs:
    def test_zero_target_is_stationary(self):
        grid, w0 = circle_setup(64)
        h0 = metric(grid, np.zeros(grid.shape))
        state = FlowState(t=10.0, w=w0, E_history=[],
                          t0=10.0, step=0.05, tail_integral=h0 * 0.0)
        rates = flow_rhs(state, h0)
        assert sup_norm(rates.hdot, 0) == 0.0
        assert np.max(np.abs(rates.wdot.values)) <= 1e-15

    def test_path_starts_at_zero(self):
        grid, w0 = circle_setup(64)
        h = metric(grid, np.full(grid.shape, 0.04))
        state = FlowState(t=10.0, w=w0, E_history=[],
                          t0=10.0, step=0.05, tail_integral=h * 0.0)
        assert sup_norm(eval_h(state, 10.0, h), 0) == 0.0

    def test_hdot_matches_central_difference_of_path(self):
        grid, w0 = circle_setup(256)
        h = metric(grid, np.full(grid.shape, 0.02))
        cfg = FlowConfig(t0=10.0, t_end=15.0, tol=1e-3)
        # integrate a little past t0 + 0.5 to build history
        state = FlowState(t=cfg.t0, w=w0, E_history=[],
                          t0=cfg.t0, step=cfg.dt, tail_integral=h * 0.0)
        while state.t < 10.55:
            rates = flow_rhs(state, h)
            state.E_history.append((state.t, rates.E_new))
            k1 = rates.wdot
            half = state.t + cfg.dt / 2
            k2 = flow_rhs(state, h, t=half, w=state.w + k1 * (cfg.dt / 2)).wdot
            k3 = flow_rhs(state, h, t=half, w=state.w + k2 * (cfg.dt / 2)).wdot
            k4 = flow_rhs(state, h, t=state.t + cfg.dt, w=state.w + k3 * cfg.dt).wdot
            state.w = state.w + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (cfg.dt / 6.0)
            state.t += cfg.dt
        t_mid = state.t - cfg.dt / 2  # strictly inside the last sample gap
        exact = eval_hdot(state, t_mid, h).comps

        def central_err(delta):
            num = eval_h(state, t_mid + delta, h).comps \
                - eval_h(state, t_mid - delta, h).comps
            return float(np.max(np.abs(num / (2 * delta) - exact)))

        e1, e2 = central_err(1e-2), central_err(5e-3)
        assert e1 <= 1e-4
        assert e2 <= e1 / 3.0  # O(delta^2)

    def test_freeness_loss_aborts(self):
        grid = PeriodicGrid((256,))
        (x,) = grid.meshes()
        # r = 1 + 0.2 cos(2x) has det[w', w''] = (1-a)(1-5a) = 0 exactly at
        # the node x = pi/2: the map drops freeness there
        r = 1.0 + 0.2 * np.cos(2 * x)
        w = unit_circle_map(grid, ambient=2)
        from corrugate.grid import ImmersionField
        w = ImmersionField(grid, np.stack([r * np.cos(x), r * np.sin(x)], axis=-1))
        assert not is_free(w).is_free
        h0 = metric(grid, np.zeros(grid.shape))
        state = FlowState(t=10.0, w=w, E_history=[],
                          t0=10.0, step=0.05, tail_integral=h0 * 0.0)
        with pytest.raises(NonconvergenceError):
            flow_rhs(state, h0)

    def test_window_quadrature_matches_pairwise_trapezoid(self):
        # reference: the window integrals summed one trapezoid pair at a time
        grid = PeriodicGrid((64,))
        rng = np.random.default_rng(17)
        taus = list(10.0 + 0.05 * np.arange(23))
        taus += [taus[-1] + 0.02, taus[-1] + 0.07]  # short final step, then a future sample
        t = taus[-2] + 0.01
        state = FlowState(t=taus[-2], w=circle_setup(64)[1],
                          E_history=[(tau, metric(grid, rng.normal(size=grid.shape)))
                                     for tau in taus],
                          t0=10.0, step=0.05,
                          tail_integral=metric(grid, rng.normal(size=grid.shape)))
        h = metric(grid, 0.02 * np.cos(grid.meshes()[0]))

        samples = [(tau, e.data) for tau, e in state.E_history if tau <= t]
        assert len(samples) == len(taus) - 1
        L = state.tail_integral.data
        C = np.zeros_like(L)
        for (t_a, e_a), (t_b, e_b) in zip(samples, samples[1:]):
            dt = t_b - t_a
            L = L + (e_a * (psi_ramp(t - t_a) * 0.5 * dt) + e_b * (psi_ramp(t - t_b) * 0.5 * dt))
            C = C + (e_a * (psi_ramp_derivative(t - t_a) * 0.5 * dt)
                     + e_b * (psi_ramp_derivative(t - t_b) * 0.5 * dt))
        inner = MetricField(grid, h.data * psi_ramp(t - state.t0) + L)
        h_ref = smooth(inner, 1.0 / t).data
        hdot_ref = (smooth_eps_derivative(inner, 1.0 / t).data * (-1.0 / t**2)
                    + smooth(MetricField(grid, h.data * psi_ramp_derivative(t - state.t0) + C),
                             1.0 / t).data)

        for got, ref in ((eval_h(state, t, h).data, h_ref),
                         (eval_hdot(state, t, h).data, hdot_ref)):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_one_derivative_stack_per_evaluation(self, monkeypatch):
        import corrugate.leastnorm as leastnorm

        built = []
        stack_of = leastnorm._derivative_stack
        monkeypatch.setattr(leastnorm, "_derivative_stack",
                            lambda w: built.append(w) or stack_of(w))
        grid, w0 = circle_setup(64)
        h = metric(grid, np.full(grid.shape, 0.02))
        state = FlowState(t=10.0, w=w0, E_history=[],
                          t0=10.0, step=0.05, tail_integral=h * 0.0)
        flow_rhs(state, h)
        assert len(built) == 1

    def test_window_underflow_is_internal_error(self):
        grid, w0 = circle_setup(64)
        h = metric(grid, np.full(grid.shape, 0.02))
        state = FlowState(t=15.0, w=w0, E_history=[],
                          t0=10.0, step=0.05, tail_integral=h * 0.0)
        with pytest.raises(CorrugateError):
            eval_hdot(state, 15.0, h)


class TestRunFlow:
    def test_stationary_to_machine_precision(self):
        grid, w0 = circle_setup(128)
        h0 = metric(grid, np.zeros(grid.shape))
        u, diag = run_flow(w0, h0, FlowConfig(t0=10.0, t_end=15.0, tol=1e-10))
        drift = np.max(np.abs(u.values - w0.values))
        assert drift <= 1e-12 * len(diag.samples)

    @pytest.mark.slow
    def test_constant_target_reaches_scaled_metric(self):
        grid, w0 = circle_setup(256)
        alpha = 0.04
        u, diag = run_flow(w0, metric(grid, np.full(grid.shape, alpha)),
                           FlowConfig(t0=10.0, t_end=22.0, tol=1e-4))
        g11 = pullback_metric(u).component(0, 0)
        assert np.max(np.abs(g11 - (1.0 + alpha))) <= 1e-4
        assert diag.final_resid <= 1e-4

    @pytest.mark.slow
    def test_cosine_target_residual(self):
        grid, w0 = circle_setup(256)
        (x,) = grid.meshes()
        h = metric(grid, 0.02 * np.cos(2 * x))
        u, diag = run_flow(w0, h, FlowConfig(t0=10.0, t_end=22.0, tol=1e-3,
                                             smallness=0.4))
        assert diag.final_resid <= 1e-3

    def test_audits_pass_every_step(self):
        grid, w0 = circle_setup(256)
        alpha = 0.04
        _, diag = run_flow(w0, metric(grid, np.full(grid.shape, alpha)),
                           FlowConfig(t0=10.0, t_end=16.0, tol=1e-4))
        assert max(s.ortho_resid for s in diag.samples) <= 1e-8
        assert max(s.identity_resid for s in diag.samples) <= 1e-6

    def test_diagnostics_not_flagged(self):
        grid, w0 = circle_setup(256)
        alpha = 0.04
        _, diag = run_flow(w0, metric(grid, np.full(grid.shape, alpha)),
                           FlowConfig(t0=10.0, t_end=16.0, tol=1e-4))
        _, flags = tracked_quantities(diag.samples, 10.0)
        assert not any(flags.values())

    def test_smallness_precondition(self):
        grid, w0 = circle_setup(128)
        with pytest.raises(InputError):
            run_flow(w0, metric(grid, np.full(grid.shape, 0.5)),
                     FlowConfig(t0=10.0, t_end=16.0))

    def test_divergence_guard_fires_on_unreachable_tolerance(self):
        grid, w0 = circle_setup(128)
        h = metric(grid, np.full(grid.shape, 0.04))
        with pytest.raises(DivergenceError) as err:
            run_flow(w0, h, FlowConfig(t0=10.0, t_end=30.0, tol=1e-15))
        assert err.value.diagnostics.samples

    def test_config_validation(self):
        with pytest.raises(InputError):
            FlowConfig(t0=10.0, t_end=12.0)
        with pytest.raises(InputError):
            FlowConfig(t0=0.5)


class TestDiagnosticsTable:
    def test_stationary_quantities_vanish(self):
        grid, w0 = circle_setup(128)
        h0 = metric(grid, np.zeros(grid.shape))
        _, diag = run_flow(w0, h0, FlowConfig(t0=10.0, t_end=15.0, tol=1e-10))
        rows, flags = tracked_quantities(diag.samples, 10.0)
        assert max(r[1] for r in rows) == 0.0
        assert max(r[2] for r in rows) == 0.0
        assert not any(flags.values())

    def test_injected_spike_raises_flag(self):
        base = [FlowSample(t=10.0 + 0.05 * k, hdot_c0=1e-3, hdot_c4=1e-3,
                           wdot_c0=1e-3, wdot_c4=1e-3, ortho_resid=0.0,
                           identity_resid=0.0, dist3=1e-3, metric_resid=0.0)
                for k in range(60)]
        spike = base[-1]._replace(hdot_c0=50.0)
        rows, flags = tracked_quantities(base + [spike], 10.0)
        assert flags["hdot"]
        assert not flags["wdot"]

    def test_csv_rows_shape(self):
        from corrugate.flow import FlowDiagnostics

        diag = FlowDiagnostics(samples=[
            FlowSample(10.0, 0, 0, 0, 0, 0, 0, 0, 0),
            FlowSample(10.05, 0, 0, 0, 0, 0, 0, 0, 0)])
        rows = diag.csv_rows()
        assert rows[0] == FlowSample.CSV_HEADER
        assert len(rows) == 3
