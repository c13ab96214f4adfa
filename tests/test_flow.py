import time
import tracemalloc

import numpy as np
import pytest

import corrugate.grid as grid_module
from corrugate.errors import (
    CapabilityError,
    CorrugateError,
    DivergenceError,
    InputError,
    NonconvergenceError,
)
from corrugate.flow import (
    STEP,
    STEP_BYTES,
    TABLE_STEPS,
    FlowConfig,
    FlowDiagnostics,
    FlowSample,
    FlowState,
    _advance,
    _read_times,
    _rhs,
    _schedule,
    _spectral_multipliers,
    _window_quadratures,
    psi_ramp,
    psi_ramp_derivative,
    run_flow,
    tracked_quantities,
)
from corrugate.grid import (
    ImmersionField,
    MetricField,
    PeriodicGrid,
    ScalarField,
    derivative_multipliers,
    pullback_metric,
    sup_norm,
)
from corrugate.leastnorm import is_free
from corrugate.smoothing import multiplier, multiplier_derivative, smooth, smooth_eps_derivative

from conftest import unit_circle_map


def circle_setup(res=256):
    grid = PeriodicGrid((res,))
    return grid, unit_circle_map(grid, ambient=2)


def metric(grid, values):
    return MetricField(grid, np.asarray(values)[..., None])


def spectrum(values):
    return np.fft.rfft(values, axis=0)


def nodes(spec, grid):
    return np.fft.irfft(spec, n=grid.shape[0], axis=0)


def read(state, t, h):
    """The reading of the one time t, from the target's spectrum h."""
    return _read_times(state, (t,), h)[0]


def rhs(state, h, t=None, P=None):
    """The flow's right-hand side at (t, P), default the state's own time
    and map spectrum, for a closed circle map (zero offsets)."""
    t = state.t if t is None else t
    return _rhs(state, state.P if P is None else P, read(state, t, spectrum(h.data)))


def path_h(state, t, h):
    """The tensor path h(t) = S_{1/t}[psi(t - t0) h + L(t)], smoothed by
    ``smoothing.smooth`` from the stored history."""
    L = nodes(_window_quadratures(state, np.array([t]))[0][0], h.grid)
    return smooth(MetricField(h.grid, h.data * psi_ramp(t - state.t0) + L), 1.0 / t).data


def count_transforms(monkeypatch) -> list:
    """Count every numpy FFT call from here on."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, lambda *args, _fn=getattr(np.fft, name), **kw:
                            calls.append(_fn) or _fn(*args, **kw))
    return calls


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
        rates = rhs(FlowState(10.0, w0), h0)
        assert np.max(np.abs(rates.hdot)) == 0.0
        assert np.max(np.abs(rates.wdot)) <= 1e-15

    def test_path_starts_at_zero(self):
        grid, w0 = circle_setup(64)
        h = metric(grid, np.full(grid.shape, 0.04))
        assert np.max(np.abs(path_h(FlowState(10.0, w0), 10.0, h))) == 0.0

    def test_hdot_matches_central_difference_of_path(self):
        grid, w0 = circle_setup(256)
        h = metric(grid, np.full(grid.shape, 0.02))
        cfg = FlowConfig(t0=10.0, t_end=15.0, tol=1e-3)
        # integrate a little past t0 + 0.5 to build history
        state = FlowState(cfg.t0, w0)
        while state.t < 10.55:
            rates = rhs(state, h)
            state.record(state.t, rates.E)
            _advance(state, spectrum(h.data), rates.W)
        t_mid = state.t - STEP / 2  # strictly inside the last sample gap
        exact = nodes(read(state, t_mid, spectrum(h.data)).H, grid)

        def central_err(delta):
            num = path_h(state, t_mid + delta, h) - path_h(state, t_mid - delta, h)
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
        w = ImmersionField(grid, np.stack([r * np.cos(x), r * np.sin(x)], axis=-1))
        assert not is_free(w).is_free
        h0 = metric(grid, np.zeros(grid.shape))
        with pytest.raises(NonconvergenceError):
            rhs(FlowState(10.0, w), h0)

    def test_window_quadrature_matches_pairwise_trapezoid(self):
        # reference: the window integrals summed one trapezoid pair at a time
        grid = PeriodicGrid((64,))
        rng = np.random.default_rng(17)
        taus = list(10.0 + 0.05 * np.arange(23))
        taus += [taus[-1] + 0.02, taus[-1] + 0.07]  # short final step, then a future sample
        t = taus[-2] + 0.01
        history = [(tau, metric(grid, rng.normal(size=grid.shape))) for tau in taus]
        tail = metric(grid, rng.normal(size=grid.shape))
        state = FlowState(10.0, circle_setup(64)[1])
        state.t, state.tail = taus[-2], spectrum(tail.data)
        for tau, e in history:
            state.record(tau, e.data)
        h = metric(grid, 0.02 * np.cos(grid.meshes()[0]))

        samples = [(tau, e.data) for tau, e in history if tau <= t]
        assert len(samples) == len(taus) - 1
        L = tail.data
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

        for got, ref in ((path_h(state, t, h), h_ref),
                         (nodes(read(state, t, spectrum(h.data)).H, grid), hdot_ref)):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        # read in one pass with a later time, which sees one sample more, t reads the same
        paired = nodes(_read_times(state, (t, taus[-1] + 0.01), spectrum(h.data))[0].H, grid)
        assert np.max(np.abs(paired - hdot_ref)) <= 1e-14 * np.max(np.abs(hdot_ref))

    def test_one_rhs_makes_at_most_three_transforms(self, monkeypatch):
        # one batched inverse of the map's jet and hdot, one spectrum of
        # wdot and the inverse of its derivative
        grid, w0 = circle_setup(64)
        h = metric(grid, np.full(grid.shape, 0.02))
        state = FlowState(10.0, w0)
        now = read(state, state.t, spectrum(h.data))
        calls = count_transforms(monkeypatch)
        _rhs(state, state.P, now)
        assert 0 < len(calls) <= 3

    def test_one_step_makes_at_most_14_transforms_and_block_time_only_calls(self, monkeypatch):
        # k1, its E and its record, then k2..k4: the middle stages share one
        # reading and the last stage's serves the next step's first. What
        # depends on time alone is built once per block of TABLE_STEPS steps,
        # at the block's first step, on its scheduled times in order
        import corrugate.flow as flow

        grid, w0 = circle_setup(64)
        h = spectrum(np.full(grid.shape + (1,), 0.02))
        state = FlowState(10.0, w0)
        now = read(state, state.t, h)
        P0, pull = state.P, pullback_metric(w0).data
        multipliers, weights, quadratures, stages = [], [], [], []
        mults, weigh, rhs_ = flow._spectral_multipliers, flow._window_weights, flow._rhs
        monkeypatch.setattr(flow, "_spectral_multipliers", lambda *args: multipliers.append(
            (state.step, list(args[1]))) or mults(*args))
        monkeypatch.setattr(flow, "_window_weights", lambda *args: weights.append(
            (state.step, list(args[1]))) or weigh(*args))
        monkeypatch.setattr(flow, "_window_quadratures",
                            lambda *args: quadratures.append(args) or pytest.fail("oracle read"))
        monkeypatch.setattr(flow, "_rhs", lambda *args: stages.append(rhs_(*args)) or stages[-1])
        calls = count_transforms(monkeypatch)
        scheduled, t = [], state.t
        for _ in range(3 * TABLE_STEPS):
            scheduled.append([t + STEP / 2.0, t + STEP])
            t += STEP
            del calls[:], stages[:]
            rates = flow._rhs(state, state.P, now)
            state.record(state.t, rates.E)
            flow._record(state, rates, P0, pull, np.full(grid.shape + (1,), 0.02))
            now_next = _advance(state, h, rates.W)
            assert 0 < len(calls) <= 14
            assert len(stages) == 4
            assert np.array_equal(stages[1].hdot, stages[2].hdot)
            assert stages[3].H is now_next.H
            now = now_next
        blocks = [(b, sum(scheduled[b:b + TABLE_STEPS], []))
                  for b in range(0, 3 * TABLE_STEPS, TABLE_STEPS)]
        assert multipliers == blocks
        assert weights == blocks
        assert quadratures == []

    def test_every_scheduled_reading_is_the_single_time_reading(self, monkeypatch):
        # 121 steps from t0 = 10 to 16.02, the last one 0.02, in several blocks
        # and past the steps where prune retires samples: every stage's
        # reading against the single-time reading of the history it reads
        import corrugate.flow as flow

        grid, w0 = circle_setup(64)
        h = metric(grid, np.full(grid.shape, 0.04))
        states, counts, rhs_ = [], [], flow._rhs

        def checked(state, P, now):
            want = read(state, now.t, spectrum(h.data))
            assert now.t == want.t and np.array_equal(now.jet, want.jet)
            assert np.max(np.abs(now.H - want.H)) <= 1e-15 * np.max(np.abs(want.H))
            states.append(state)
            counts.append(state.count)
            return rhs_(state, P, now)

        monkeypatch.setattr(flow, "_rhs", checked)
        _, diag = run_flow(w0, h, FlowConfig(t0=10.0, t_end=16.02, tol=1e-4))
        state = states[0]
        assert len(diag.samples) == len(state.dt) == 121 > 2 * TABLE_STEPS
        assert len(counts) == 4 * 121
        assert abs(state.dt[-1] - 0.02) <= 1e-9
        assert any(later < earlier for earlier, later in zip(counts, counts[1:]))

    @pytest.mark.parametrize("steps, dt", [(3, STEP), (3, 0.02), (30, STEP)],
                             ids=["normal-step", "uneven-last-step", "step-after-prune"])
    def test_paired_reading_is_two_single_time_readings(self, steps, dt):
        grid, w0 = circle_setup(64)
        h = spectrum(0.02 * np.cos(2 * grid.meshes()[0])[:, None])
        state = FlowState(10.0, w0)
        now = read(state, state.t, h)
        for _ in range(steps):
            rates = _rhs(state, state.P, now)
            state.record(state.t, rates.E)
            stored = state.count
            now = _advance(state, h, rates.W)
        if steps == 30:  # the last step retired samples behind the window
            assert state.count < stored
        state.record(state.t, _rhs(state, state.P, now).E)
        t = state.t
        pair = _read_times(state, (t + dt / 2.0, t + dt), h)
        for got, want in zip(pair, (read(state, t + dt / 2.0, h), read(state, t + dt, h))):
            assert got.t == want.t and np.array_equal(got.jet, want.jet)
            assert np.max(np.abs(got.H - want.H)) <= 1e-15 * np.max(np.abs(want.H))

    def test_batched_multipliers_are_the_single_time_formula(self):
        n, times = 64, np.array([10.0, 10.025, 13.37, 21.95])
        jets, pairs = _spectral_multipliers(n, times)
        k = np.arange(n // 2 + 1, dtype=float)[:, None]
        ik, ik2 = derivative_multipliers(n, 2)[..., None]
        for i, t in enumerate(times.tolist()):
            eps = 1.0 / t
            m = multiplier(eps * k)
            assert np.array_equal(jets[i], np.stack([ik * m, ik2 * m, ik], axis=1))
            assert np.array_equal(pairs[i],
                                  np.stack([k * multiplier_derivative(eps * k) * -(eps * eps), m],
                                           axis=1))

    def test_last_stage_hdot_is_the_next_steps_first(self):
        # the step's last stage reads the history the next step's first does
        grid, w0 = circle_setup(64)
        h = spectrum(np.full(grid.shape + (1,), 0.02))
        state = FlowState(10.0, w0)
        now = read(state, state.t, h)
        for _ in range(30):  # past the window, so samples are retired
            rates = _rhs(state, state.P, now)
            state.record(state.t, rates.E)
            now = _advance(state, h, rates.W)
            fresh = read(state, state.t, h)
            assert now.t == fresh.t and np.array_equal(now.jet, fresh.jet)
            assert np.max(np.abs(now.H - fresh.H)) <= 1e-15 * np.max(np.abs(fresh.H))

    def test_recorded_sups_match_the_field_norms(self):
        # the step's batched D^0..D^4 sups and residuals against the field norms
        from corrugate.flow import _record
        from corrugate.grid import derivative_sups, symmetric_product

        grid, w0 = circle_setup(64)
        (x,) = grid.meshes()
        w = ImmersionField(grid, w0.values + 0.05 * np.stack([np.cos(3 * x), np.sin(2 * x)], -1))
        h = metric(grid, 0.02 * np.cos(2 * x))
        state = FlowState(10.0, w)
        state.t = 10.05
        rates = rhs(state, h)
        sample = _record(state, rates, spectrum(w0.data), pullback_metric(w0).data, h.data)
        hdot = MetricField(grid, rates.hdot)
        wdot = ImmersionField.from_periodic(grid, rates.wdot)
        identity = symmetric_product(smooth(w, 1.0 / state.t), wdot) * 2.0 - hdot
        for got, want in ((sample.hdot_c4, sum(derivative_sups(hdot, 4))),
                          (sample.wdot_c4, sum(derivative_sups(wdot, 4))),
                          (sample.dist3, sup_norm(w - w0, 3)),
                          (sample.hdot_c0, sup_norm(hdot, 0)),
                          (sample.wdot_c0, sup_norm(wdot, 0))):
            assert got == pytest.approx(want, rel=1e-12)
        resid = pullback_metric(w) - pullback_metric(w0) - h
        assert sample.metric_resid == pytest.approx(sup_norm(resid, 0), abs=1e-15)
        assert sample.identity_resid == pytest.approx(sup_norm(identity, 0), abs=1e-15)

    def test_window_underflow_is_internal_error(self):
        grid, w0 = circle_setup(64)
        h = metric(grid, np.full(grid.shape, 0.02))
        state = FlowState(10.0, w0)
        state.t = 15.0
        with pytest.raises(CorrugateError, match="window underflow"):
            read(state, 15.0, spectrum(h.data))


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

    def test_alpha_run_pins_final_residual(self):
        # the flow bench's run: its final residual is pinned, its audits hold every step
        grid, w0 = circle_setup(256)
        _, diag = run_flow(w0, metric(grid, np.full(grid.shape, 0.04)),
                           FlowConfig(t0=10.0, t_end=22.0, tol=1e-4))
        assert abs(diag.final_resid - 6.26828e-8) <= 1e-11
        assert max(s.ortho_resid for s in diag.samples) <= 1e-8
        assert max(s.identity_resid for s in diag.samples) <= 1e-6

    def test_alpha_run_builds_the_multipliers_once_per_block(self, monkeypatch):
        # the flow bench's run: 240 steps read their multipliers from one
        # evaluation per block of TABLE_STEPS, after the start's own reading
        import corrugate.flow as flow

        calls, mults = [], flow._spectral_multipliers
        monkeypatch.setattr(flow, "_spectral_multipliers",
                            lambda *args: calls.append(args) or mults(*args))
        grid, w0 = circle_setup(256)
        _, diag = run_flow(w0, metric(grid, np.full(grid.shape, 0.04)),
                           FlowConfig(t0=10.0, t_end=22.0, tol=1e-4))
        assert len(diag.samples) == 240
        assert len(calls) <= -(-240 // TABLE_STEPS) + 1

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

    def test_free_circle_in_r3_reaches_tolerance(self):
        # the free circle (cos x, sin x, 0.3 sin 2x) flows in R^3 as the plane circle does in R^2
        grid = PeriodicGrid((128,))
        (x,) = grid.meshes()
        w0 = ImmersionField(grid, np.stack([np.cos(x), np.sin(x), 0.3 * np.sin(2 * x)], -1))
        _, diag = run_flow(w0, metric(grid, np.full(grid.shape, 0.02)),
                           FlowConfig(t0=10.0, t_end=22.0, tol=1e-4))
        assert diag.final_resid <= 1e-4
        assert max(s.identity_resid for s in diag.samples) <= 1e-6

    def test_torus_start_is_a_capability_limit(self, torus32):
        x, y = torus32.meshes()
        w0 = ImmersionField(torus32, np.stack([np.cos(x), np.sin(x), np.cos(y), np.sin(y)], -1))
        with pytest.raises(CapabilityError, match="circle maps"):
            run_flow(w0, MetricField.identity(torus32, 0.01), FlowConfig(t0=10.0, t_end=15.0))

    @pytest.mark.parametrize("target", [
        MetricField.identity(PeriodicGrid((128,)), 0.01),
        ScalarField.constant(PeriodicGrid((256,)), 0.01)], ids=["metric-on-128", "scalar"])
    def test_target_not_a_metric_on_the_map_grid_refused(self, target):
        _, w0 = circle_setup(256)
        with pytest.raises(InputError, match="target must be a metric on the starting map's grid"):
            run_flow(w0, target, FlowConfig(t0=10.0, t_end=15.0))

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
        assert err.value.partial_report.samples

    def test_config_validation(self):
        with pytest.raises(InputError):
            FlowConfig(t0=10.0, t_end=12.0)
        with pytest.raises(InputError):
            FlowConfig(t0=0.5)

    @pytest.mark.parametrize("t0, t_end", [(1e17, 1.0000000000000002e17), (1e17, None)])
    def test_end_where_a_step_does_not_advance_time_refused(self, t0, t_end):
        # float spacing at 1e17 is 16, so t + STEP == t and the run would never end
        with pytest.raises(InputError, match=f"^t_end .* too large for steps of {STEP}"):
            FlowConfig(t0=t0, t_end=t_end)
        FlowConfig(t0=1e12)  # spacing 1.2e-4 there, so every step advances

    @pytest.mark.parametrize("field, value", [
        ("t_end", float("inf")), ("t_end", float("nan")), ("t0", float("nan")),
        ("tol", float("nan")), ("smallness", float("nan")), ("smallness", 0.0)])
    def test_non_finite_or_nonpositive_config_refused(self, field, value):
        with pytest.raises(InputError, match=f"^{field} "):
            FlowConfig(**{field: value})

    def test_steps_past_the_cap_refused_before_any_schedule(self, monkeypatch):
        monkeypatch.setattr(grid_module, "MAX_NODES", 2**10)
        cap = 2**10 * 40 * 8 // STEP_BYTES
        for t0 in (10.0, 12.3, 1e6):
            # the count at the cap is accepted, and it is the schedule's count
            assert len(_schedule(t0, FlowConfig(t0, t0 + cap * STEP).t_end)[1]) == cap
            start = time.perf_counter()
            with pytest.raises(InputError, match=(
                    f"^t_end .* takes {cap + 1} steps of {STEP} from t0 .*, beyond the cap "
                    f"of {cap} steps: .* would take 0.3 MiB at {STEP_BYTES} bytes a step, "
                    f".* grid of 1024 nodes, about 0 MiB at 40 doubles per node$")):
                FlowConfig(t0, t0 + (cap + 1) * STEP)
            assert time.perf_counter() - start < 0.1
        monkeypatch.undo()
        start = time.perf_counter()
        with pytest.raises(InputError, match="takes 19999999800 steps .* 10,375,976.5 MiB"):
            FlowConfig(t_end=1e9)
        assert time.perf_counter() - start < 0.1

    def test_step_bytes_hold_a_steps_schedule_and_record(self):
        steps = 20000
        tracemalloc.start()
        try:
            schedule = _schedule(10.0, 10.0 + steps * STEP)
            diag = FlowDiagnostics([FlowSample(*(k + j / 16 for j in range(9)))
                                    for k in range(steps)])
            rows = diag.csv_rows()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(schedule[1]) == len(rows) - 1 == steps
        assert peak <= STEP_BYTES * steps


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
        assert rows[0] == list(FlowSample._fields)
        assert len(rows) == 3
