import numpy as np
import pytest

from corrugate.corrugation import (
    StageReport,
    check_stage_estimates,
    choose_lambda,
    resample_primitive,
    run_stage,
    spiral_perturbation,
)
from corrugate.decompose import PrimitiveMetric
from corrugate.errors import InputError, NonconvergenceError, ResolutionError, StageError
from corrugate.fieldio import read_table, write_table
from corrugate.frame import FramePair, normal_pair
from corrugate.grid import (
    ImmersionField,
    MetricField,
    PeriodicGrid,
    ScalarField,
    derivative_sups,
    is_short,
    pullback_metric,
    resample,
    sup_norm,
    symmetric_product,
)

from conftest import clifford_map, flat_strip_map, unit_circle_map


def constant_primitive(grid, amp_fn=None, direction=(1.0, 0.0)):
    if amp_fn is None:
        amp = ScalarField.constant(grid, 1.0)
    else:
        amp = ScalarField.from_function(grid, amp_fn)
    return PrimitiveMetric(
        amplitude=amp,
        psi_linear=np.asarray(direction, dtype=float)[: grid.dim],
    )


def rotating_gauge_frame(grid):
    """Valid normal frame on the strip whose gauge turns with x.

    Parallel transport on the flat strip gives a constant frame, for which
    the spiral's O(1/lambda) error term cancels identically; a turning
    gauge exhibits the generic first-order rate.
    """
    x, _ = grid.meshes()
    zeros = np.zeros_like(x)
    nu = np.stack([zeros, zeros, np.cos(x), np.sin(x)], axis=-1)
    b = np.stack([zeros, zeros, -np.sin(x), np.cos(x)], axis=-1)
    return FramePair(grid, nu, b)


class TestSpiralPerturbation:
    def test_zero_amplitude_gives_zero_increment(self):
        grid = PeriodicGrid((128, 16))
        w = flat_strip_map(grid)
        prim = PrimitiveMetric(
            amplitude=ScalarField.constant(grid, 0.0),
            psi_linear=np.array([1.0, 0.0]))
        wp = spiral_perturbation(w, prim, normal_pair(w), 8.0)
        assert np.max(np.abs(wp.values)) == 0.0

    def test_exact_flat_strip_increment(self):
        # constant amplitude, linear phase, constant frame: the error term
        # vanishes and the pullback gains exactly dpsi (x) dpsi
        grid = PeriodicGrid((256, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid)
        wp = spiral_perturbation(w, prim, normal_pair(w), 8.0)
        z = w + wp
        incr = pullback_metric(z) - pullback_metric(w) - prim.tensor()
        assert sup_norm(incr, 0) <= 1e-9
        assert np.max(np.abs(pullback_metric(z).matrices()
                             - np.diag([2.0, 1.0]))) <= 1e-9

    def test_c0_size_bound(self):
        grid = PeriodicGrid((256, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid, lambda x, y: 1.0 + 0.3 * np.cos(x))
        for lam in (8.0, 16.0):
            wp = spiral_perturbation(w, prim, normal_pair(w), lam)
            assert sup_norm(wp, 0) <= sup_norm(prim.amplitude, 0) / lam + 1e-12

    def test_resolution_error(self):
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        with pytest.raises(ResolutionError):
            spiral_perturbation(w, constant_primitive(grid), normal_pair(w), 8.0)

    def test_parallel_gauge_superconvergence(self):
        # with the transported (constant) frame the increment error is the
        # closed form (a'/lambda)^2
        for lam in (8.0, 16.0):
            grid = PeriodicGrid((int(16 * lam), 16))
            w = flat_strip_map(grid)
            prim = constant_primitive(grid, lambda x, y: 1.0 + 0.3 * np.cos(x))
            wp = spiral_perturbation(w, prim, normal_pair(w), lam)
            err = sup_norm(pullback_metric(w + wp) - pullback_metric(w)
                           - prim.tensor(), 0)
            assert err == pytest.approx(0.09 / lam**2, rel=1e-6)

    def test_first_order_rate_with_turning_gauge(self):
        errs = []
        lams = [8.0, 16.0, 32.0, 64.0]
        for lam in lams:
            grid = PeriodicGrid((int(16 * lam), 16))
            w = flat_strip_map(grid)
            prim = constant_primitive(grid, lambda x, y: 1.0 + 0.3 * np.cos(x))
            wp = spiral_perturbation(w, prim, rotating_gauge_frame(grid), lam)
            errs.append(sup_norm(pullback_metric(w + wp) - pullback_metric(w)
                                 - prim.tensor(), 0))
        slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
        assert -1.2 <= slope <= -0.8


class TestCheckStageEstimates:
    def test_exact_case_passes(self):
        grid = PeriodicGrid((256, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid)
        wp = spiral_perturbation(w, prim, normal_pair(w), 8.0)
        check = check_stage_estimates(w, w + wp, prim, eta_budget=0.5,
                                      delta_budget=1e-9 + 1e-12)
        assert check.ok
        assert check.incr_err <= 1e-9

    def test_small_lambda_fails_third_estimate(self):
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid, lambda x, y: 1.0 + 0.3 * np.cos(x))
        wp = spiral_perturbation(w, prim, rotating_gauge_frame(grid), 4.0)
        check = check_stage_estimates(w, w + wp, prim, eta_budget=1.0,
                                      delta_budget=1e-3)
        assert not check.incr_ok
        assert check.failing() == "increment"

    def test_zero_primitive_passes_trivially(self):
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        prim = PrimitiveMetric(
            amplitude=ScalarField.constant(grid, 0.0),
            psi_linear=np.array([1.0, 0.0]))
        check = check_stage_estimates(w, w, prim, eta_budget=0.1, delta_budget=0.1)
        assert check.ok
        assert check.c0 == 0.0 and check.deriv_sq == 0.0 and check.incr_err == 0.0


def _check_case(case):
    """(w_prev, w_next, prim) of one estimate check."""
    if case.startswith("strip"):
        grid = PeriodicGrid((256, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid, lambda x, y: 1.0 + 0.3 * np.cos(x))
        w_next = w + spiral_perturbation(w, prim, rotating_gauge_frame(grid), 8.0)
        if case == "strip_stretched":
            # offsets that differ between the maps: C0 is taken of the lift
            w_next = w_next + 0.01 * w
        return w, w_next, prim
    if case == "circle":
        grid = PeriodicGrid((256,))
        w = unit_circle_map(grid)
        prim = constant_primitive(grid, lambda x: 0.5 + 0.2 * np.cos(x))
        return w, w + spiral_perturbation(w, prim, normal_pair(w), 8.0), prim
    lam = float(case.split("_")[1])
    grid = PeriodicGrid((1024, 32))
    x, y = grid.meshes()
    w = clifford_map(grid, r=1.0)
    w = ImmersionField(grid, w.values * (1.0 + 0.05 * np.sin(x + 2 * y))[..., None])
    prim = PrimitiveMetric(
        amplitude=ScalarField.from_function(grid, lambda x, y: 1.0 + 0.3 * np.cos(y)),
        psi_linear=np.array([1.0, 0.0]))
    return w, w + spiral_perturbation(w, prim, normal_pair(w), lam), prim


class TestFusedCheck:
    @pytest.mark.parametrize("case", [
        "strip", "strip_stretched", "clifford_8", "clifford_16", "clifford_32",
        "clifford_64", "circle"])
    def test_matches_the_pullback_difference(self, case):
        w_prev, w_next, prim = _check_case(case)
        check = check_stage_estimates(w_prev, w_next, prim, 1.0, 1.0)
        c0, deriv = derivative_sups(w_next - w_prev, 1)
        incr = pullback_metric(w_next) - pullback_metric(w_prev) - prim.tensor()
        for got, want in ((check.c0, c0), (check.deriv_sq, deriv ** 2),
                          (check.incr_err, sup_norm(incr, 0))):
            assert abs(got - want) <= 1e-12 * want
        inc = w_next - w_prev
        cross = 2.0 * symmetric_product(w_prev, inc)
        quad = pullback_metric(inc) - prim.tensor()
        scale = 1e-12 * (check.cross_err + check.quad_err)
        assert abs(check.cross_err - sup_norm(cross, 0)) <= scale
        assert abs(check.quad_err - sup_norm(quad, 0)) <= scale
        assert check.incr_err <= check.cross_err + check.quad_err + scale

    def test_differentiates_only_the_increment(self, monkeypatch):
        import corrugate.grid as grid_module

        w_prev, w_next, prim = _check_case("clifford_8")
        w_prev.derivatives()
        calls = []
        original = grid_module.spectral_gradient
        monkeypatch.setattr(grid_module, "spectral_gradient",
                            lambda *args: calls.append(1) or original(*args))
        check_stage_estimates(w_prev, w_next, prim, 1.0, 1.0)
        assert len(calls) == 1


class TestChooseLambda:
    def test_flat_constant_case_returns_first_candidate(self):
        grid = PeriodicGrid((256, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid)
        params, fields = choose_lambda(w, prim, normal_pair(w),
                                       eta_budget=0.5, delta_budget=1e-6)
        assert params.lam == 8.0
        assert fields.grid.shape == grid.shape

    def test_infinite_budgets_return_lambda0(self):
        grid = PeriodicGrid((256, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid, lambda x, y: 1.0 + 0.3 * np.cos(x))
        params, _ = choose_lambda(w, prim, normal_pair(w),
                                  eta_budget=float("inf"),
                                  delta_budget=float("inf"))
        assert params.lam == 8.0

    def test_variable_amplitude_deterministic(self):
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid, lambda x, y: 1.0 + 0.3 * np.cos(x))
        lams = set()
        for _ in range(2):
            params, _ = choose_lambda(w, prim, rotating_gauge_frame(grid),
                                      eta_budget=1.0, delta_budget=1e-2)
            lams.add(params.lam)
        assert len(lams) == 1
        lam = lams.pop()
        assert lam == 2.0 ** np.round(np.log2(lam))

    def test_refines_grid_when_needed(self):
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid)
        params, fields = choose_lambda(w, prim, normal_pair(w),
                                       eta_budget=0.5, delta_budget=1e-6)
        assert params.lam == 8.0
        assert fields.grid.shape[0] >= 128  # 16 samples/period at frequency 8

    def test_trial_fields_are_lifted_from_the_arguments(self):
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        prim = PrimitiveMetric(
            amplitude=ScalarField.from_function(grid, lambda x, y: 1.0 + 0.3 * np.cos(x)),
            psi_linear=np.array([1.0, 0.0]))
        # sup a / lambda < eta needs lambda 32: the grid refines 64 -> 128 -> 256 -> 512
        params, fields = choose_lambda(w, prim, rotating_gauge_frame(grid),
                                       eta_budget=0.05, delta_budget=1e-2)
        assert params.lam == 32.0
        assert fields.grid.shape == (512, 16)
        w_lift = resample(w, fields.grid)
        prim_lift = resample_primitive(prim, fields.grid)
        assert np.max(np.abs(fields.w.periodic - w_lift.periodic)) <= 1e-12
        assert np.array_equal(fields.w.offsets, w.offsets)
        assert np.max(np.abs(fields.prim.amplitude.values
                             - prim_lift.amplitude.values)) <= 1e-12
        assert np.array_equal(fields.prim.psi_linear, prim.psi_linear)

    def test_node_cap_abort_names_the_dominant_term(self, monkeypatch):
        import corrugate.corrugation as corrugation

        # lambda 8 and 16 are tried on 128x16 and 256x16; lambda 32 needs
        # 512x16, over the cap. The frame is parallel, so the cross term is 0
        monkeypatch.setattr(corrugation, "MAX_NODES", 2**12)
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid, lambda x, y: 1.0 + 0.3 * np.cos(x))
        with pytest.raises(NonconvergenceError) as err:
            choose_lambda(w, prim, normal_pair(w), eta_budget=1.0, delta_budget=1e-6)
        message = str(err.value)
        assert "needs grid (512, 16), beyond the desk-scale cap of 4096 nodes" in message
        assert "the trial at lambda 16 failed estimate(s) increment" in message
        assert "cross term 0.000e+00" in message
        assert "the quadratic term dominates" in message

    def test_lambda_cap_abort_names_the_dominant_term(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid)
        prim = constant_primitive(grid, lambda x: 0.5 + 0.2 * np.cos(x))
        with pytest.raises(NonconvergenceError,
                           match=r"no lambda up to 16384 .* the cross term dominates"):
            choose_lambda(w, prim, normal_pair(w), eta_budget=1.0, delta_budget=1e-9)

    @pytest.mark.parametrize("eta, delta", [
        (0.5, -1.0), (0.5, 0.0), (0.5, float("nan")), (-1.0, 1e-2), (float("nan"), 1e-2)])
    def test_bad_budget_refused_before_any_trial(self, monkeypatch, eta, delta):
        import corrugate.corrugation as corrugation

        trials = []
        monkeypatch.setattr(corrugation, "check_stage_estimates",
                            lambda *args: trials.append(args))
        monkeypatch.setattr(corrugation, "MAX_NODES", 2**12)
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        with pytest.raises(InputError, match="budgets must be positive"):
            choose_lambda(w, constant_primitive(grid), normal_pair(w),
                          eta_budget=eta, delta_budget=delta)
        assert trials == []

    def test_every_frame_meets_the_seam_tolerance(self, monkeypatch):
        import dataclasses

        import corrugate.corrugation as corrugation

        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid)
        torn = dataclasses.replace(normal_pair(w), seam_mismatch=1.0)
        with pytest.raises(StageError, match="seam"):
            choose_lambda(w, prim, torn, eta_budget=0.5, delta_budget=1e-6)
        # the frame re-swept on the refined grid (lambda 8 needs 128 nodes)
        monkeypatch.setattr(corrugation, "normal_pair", lambda w_f: dataclasses.replace(
            normal_pair(w_f), seam_mismatch=1.0))
        with pytest.raises(StageError, match="seam"):
            choose_lambda(w, prim, normal_pair(w), eta_budget=0.5, delta_budget=1e-6)


class TestRunStage:
    def test_exact_isometry_rejected_by_strictness(self):
        grid = PeriodicGrid((32, 32))
        w = clifford_map(grid, r=1.0)
        with pytest.raises(InputError):
            run_stage(w, pullback_metric(w), eta=0.5, delta=0.25)

    @pytest.mark.parametrize("eta, delta", [
        (float("inf"), 0.25), (0.5, float("inf")), (float("nan"), 0.25), (0.5, float("nan"))])
    def test_non_finite_budget_refused(self, eta, delta):
        grid = PeriodicGrid((64,))
        with pytest.raises(InputError, match="finite and positive"):
            run_stage(unit_circle_map(grid), MetricField.identity(grid, 1.2**2),
                      eta=eta, delta=delta)

    def test_circle_stage_contract(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid)
        g = MetricField.identity(grid, 1.2**2)
        z, rep = run_stage(w, g, eta=0.5, delta=0.25)
        g_lifted = resample(g, z.grid)
        flag, _ = is_short(z, g_lifted)
        assert flag
        assert rep.defect_after < 0.25
        assert rep.c0_delta < 0.5
        assert rep.defect_after < rep.defect_before

    def test_circle_stage_derivative_bound(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid)
        g = MetricField.identity(grid, 1.2**2)
        z, rep = run_stage(w, g, eta=0.5, delta=0.25)
        K = 2  # overlap bound for n = 1
        assert rep.c1_delta**2 <= 2.0 * K**2 * rep.defect_before

    def test_circle_stage_deterministic(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid)
        g = MetricField.identity(grid, 1.2**2)
        z1, rep1 = run_stage(w, g, eta=0.5, delta=0.25)
        z2, rep2 = run_stage(w, g, eta=0.5, delta=0.25)
        assert np.array_equal(z1.periodic, z2.periodic)
        assert rep1.lambdas == rep2.lambdas

    def test_torus_stage_exceeds_desk_scale(self, monkeypatch):
        import corrugate.corrugation as corrugation

        # the sequential-primitive frequency feedback drives the lambda
        # search past any desk-scale grid cap already on the first
        # primitive; the honest outcome at these budgets is nonconvergence
        # (the acceptance suite runs the full default cap)
        monkeypatch.setattr(corrugation, "MAX_NODES", 2**18)
        grid = PeriodicGrid((64, 64))
        w = clifford_map(grid, r=1.0)
        g = MetricField.identity(grid, 1.5**2)
        with pytest.raises(NonconvergenceError):
            run_stage(w, g, eta=0.5, delta=0.25)

    def test_torus_stage_quotes_the_cap_in_force(self, monkeypatch):
        import corrugate.corrugation as corrugation

        monkeypatch.setattr(corrugation, "MAX_NODES", 2**12)
        grid = PeriodicGrid((64, 64))
        w = clifford_map(grid, r=1.0)
        with pytest.raises(NonconvergenceError, match="cap of 4096 nodes"):
            run_stage(w, MetricField.identity(grid, 1.5**2), eta=0.5, delta=0.25)

    def test_input_grid_over_the_cap_refused_before_decomposing(self, monkeypatch):
        import corrugate.corrugation as corrugation

        calls = []
        original = corrugation.global_decompose
        monkeypatch.setattr(corrugation, "global_decompose",
                            lambda *args, **kw: calls.append(1) or original(*args, **kw))
        monkeypatch.setattr(corrugation, "MAX_NODES", 2**10)
        grid = PeriodicGrid((64, 64))
        with pytest.raises(InputError, match="4096 nodes, beyond the desk-scale cap of 1024"):
            run_stage(clifford_map(grid, r=1.0), MetricField.identity(grid, 1.5**2),
                      eta=0.5, delta=0.25)
        assert calls == []


class TestStageReportSerialization:
    def test_round_trip(self, tmp_path):
        rep = StageReport(
            c0_delta=0.01, c1_delta=0.5, defect_before=0.44,
            defect_after=0.15, lambdas=[64.0, 128.0], resolution=(1024,),
            slack=1e-14)
        rows = rep.csv_rows()
        write_table(rows[0], rows[1:], tmp_path / "stage.csv")
        header, back_rows = read_table(tmp_path / "stage.csv")
        assert header == StageReport.CSV_HEADER
        assert StageReport.from_csv_row(back_rows[0]) == rep
