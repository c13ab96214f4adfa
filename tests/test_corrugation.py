import re

import numpy as np
import pytest

import corrugate.grid as grid_module
from corrugate.corrugation import (
    LAMBDA_START,
    PHASES,
    TRIAL_PEAK_DOUBLES,
    StageReport,
    TwoScale,
    _phase_rows,
    _bands,
    _required_grid,
    _trial_memory,
    check_stage_estimates,
    choose_lambda,
    integer_phase,
    resample_primitive,
    run_stage,
    spiral_perturbation,
)
from corrugate.decompose import PrimitiveMetric, global_decompose
from corrugate.driver import IterationSchedule, nash_kuiper_iterate
from corrugate.errors import (
    CoverageError,
    InputError,
    NonconvergenceError,
    ResolutionError,
    StageError,
)
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

from conftest import clifford_map, flat_strip_map, unit_circle_map, unresolved_cover_case


def constant_primitive(grid, amp_fn=None, direction=(1.0, 0.0)):
    if amp_fn is None:
        amp = ScalarField.constant(grid, 1.0)
    else:
        amp = ScalarField(grid, amp_fn(*grid.meshes()))
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


def clifford_gap_primitives(change=0.0):
    """Criterion 5's inputs: the 64^2 Clifford torus in R^4 and the primitives
    of its gap to g = 1.5^2 (I + ``change``) at delta 0.25, decomposed as
    run_stage does with one bump per axis; ``change`` holds the components
    (00, 01, 11) per node. Returns (w, prims)."""
    grid = PeriodicGrid((64, 64))
    w = clifford_map(grid, r=1.0)
    g = MetricField(grid, 1.5**2 * (np.array([1.0, 0.0, 1.0]) + np.zeros(grid.shape + (3,))
                                    + change))
    _, margin = is_short(w, g, strict=True)
    norm_g = sup_norm(g, 0)
    delta0 = min(0.25 / (2.0 * norm_g + 1e-12), 0.5 * margin / norm_g)
    return w, global_decompose((1.0 - delta0) * g - pullback_metric(w), bump_count=1)


def circle_gap_primitive():
    """The circle run's stage 1 (``corrugate run --manifold circle --stages 2
    --epsilon 0.5 --resolution 64 --target-scale 1.2``): the 64-node unit
    circle in R^3 and the one primitive of its gap to g = 1.2^2 at delta 1/4,
    decomposed as run_stage does. Returns (w, prim)."""
    grid = PeriodicGrid((64,))
    w = unit_circle_map(grid)
    g = MetricField.identity(grid, 1.2**2)
    _, margin = is_short(w, g, strict=True)
    norm_g = sup_norm(g, 0)
    delta0 = min(0.25 / (2.0 * norm_g + 1e-12), 0.5 * margin / norm_g)
    (prim,) = global_decompose((1.0 - delta0) * g - pullback_metric(w), bump_count=1)
    return w, prim


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
            spiral_perturbation(w, constant_primitive(grid), normal_pair(w), 32.0)

    @pytest.mark.parametrize("lam, refused", [(15.0, False), (16.0, True)])
    def test_resolution_boundary_is_four_nodes_per_period(self, lam, refused):
        # frequency 16 on 64 nodes is n = 4|k|, the first refused; 15 passes
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        args = (w, constant_primitive(grid), normal_pair(w), lam)
        if refused:
            with pytest.raises(ResolutionError, match="axis 0: 64 nodes cannot carry "
                                                      "frequency 16"):
                spiral_perturbation(*args)
        else:
            assert spiral_perturbation(*args).grid == grid

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
        amplitude=ScalarField(grid, 1.0 + 0.3 * np.cos(y)),
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
        # the increment is streamed: each ambient component of w_next - w_prev
        # is differentiated once along each axis, w_prev's cached derivatives
        # are read as they are, and w_next gains none
        import corrugate.corrugation as corrugation

        w_prev, w_next, prim = _check_case("clifford_8")
        cached = w_prev.derivatives()
        inc = (w_next - w_prev).data
        calls = []
        original = grid_module.spectral_derivative

        def spy(values, grid, axis):
            calls.append((values.copy(), axis))
            return original(values, grid, axis)

        for module in (grid_module, corrugation):
            monkeypatch.setattr(module, "spectral_derivative", spy)
        check_stage_estimates(w_prev, w_next, prim, 1.0, 1.0)
        dim, ambient = w_prev.grid.dim, w_prev.ambient_dim
        read = sorted((a, axis) for values, axis in calls for a in range(ambient)
                      if np.array_equal(values, inc[..., a]))
        assert len(calls) == dim * ambient
        assert read == [(a, i) for a in range(ambient) for i in range(dim)]
        assert w_prev.derivatives() is cached
        assert w_next._first is None


class TestTwoScale:
    @pytest.mark.parametrize("case", ["clifford", "circle"])
    @pytest.mark.parametrize("lam", [8.0, 16.0, 32.0, 64.0])
    def test_matches_the_fine_check_on_its_grid(self, case, lam):
        # read on the input grid; the fine check runs on the grid the trial
        # would refine to (up to 192x256), with the frame built there
        if case == "clifford":
            w, prims = clifford_gap_primitives()
            prim = prims[0]
        else:
            w, prim = circle_gap_primitive()
        pair = normal_pair(w)
        two_scale = TwoScale(w, prim, pair).check(lam, 1.0, 1.0)
        # the grid the search picks: the spiral's bandwidth and its square's
        band, square = _bands(w, prim)
        fine = PeriodicGrid(_required_grid(w.grid, w.grid, integer_phase(prim, lam), band, square))
        w_f, prim_f = resample(w, fine), resample_primitive(prim, fine)
        check = check_stage_estimates(
            w_f, w_f + spiral_perturbation(w_f, prim_f, normal_pair(w_f), lam), prim_f, 1.0, 1.0)
        assert abs(two_scale.incr_err - check.incr_err) <= 1e-3 * check.incr_err
        assert two_scale.c0 == pytest.approx(check.c0, rel=1e-12)

    def test_refuses_on_c0_without_building_slow_fields(self, monkeypatch):
        import corrugate.corrugation as corrugation

        built = []

        class Counted(TwoScale):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(corrugation, "TwoScale", Counted)
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        # sup a = 1 needs lambda above 20 for eta 0.05: lambda 8 and 16 fail C0
        # alone, and so do the bisection's 20 and below. The constant
        # primitive's increment reads 0 only at an integer lambda (k = lambda),
        # so the bisection between 16 and 32 ends at 21
        params, _ = choose_lambda(w, constant_primitive(grid), normal_pair(w),
                                  eta_budget=0.05, delta_budget=1e-6)
        assert params.lam == 21.0
        assert len(built) == 1


    @pytest.mark.parametrize("case", ["clifford", "circle"])
    @pytest.mark.parametrize("lam", [8.0, 49.625, 192.5])
    def test_batched_phases_read_as_one_phase_at_a_time(self, case, lam):
        if case == "clifford":
            w, prims = clifford_gap_primitives()
            prim = prims[0]
        else:
            w, prim = circle_gap_primitive()
        scales = TwoScale(w, prim, normal_pair(w))
        mean = scales._mean(lam, integer_phase(prim, lam) / lam)
        reads = [(scales._sup_sq(mean + np.tensordot(row, scales.fast, 1)), row) for row in
                 _phase_rows(PHASES) * np.array([1.0, 1.0, 1.0 / lam, 1.0 / lam]) / lam]
        sq, row = max(reads, key=lambda read: read[0])
        want = (np.sqrt(sq), np.sqrt(scales._sup_sq(np.tensordot(row[:2], scales.fast[:2], 1))),
                np.sqrt(scales._sup_sq(mean + np.tensordot(row[2:], scales.fast[2:], 1))))
        check = scales.check(lam, np.inf, np.inf)
        for got, ref in zip((check.incr_err, check.cross_err, check.quad_err), want):
            assert abs(got - ref) <= 1e-13 * ref

    def test_one_reading_peaks_under_32_doubles_per_node_on_a_large_grid(self):
        # criterion 5's first primitive held on 256x256: a product of all 28
        # later phases would hold 84 doubles per node (the peak read 115), so
        # they are read at most PHASE_BLOCK at a time there (27)
        import tracemalloc

        w, prims = clifford_gap_primitives()
        held = PeriodicGrid((256, 256))
        w_h = resample(w, held)
        scales = TwoScale(w_h, resample_primitive(prims[0], held), normal_pair(w_h))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            check = scales.check(192.5, np.inf, np.inf)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert check.ok
        assert peak / (8 * held.num_nodes) <= 32.0

    @pytest.mark.parametrize("case, frequency", [("circle_stage_2", 491), ("clifford", 132)])
    def test_reading_refuses_one_frequency_below_the_accepted_lambda(
            self, monkeypatch, case, frequency):
        # the circle run's stage 2 (bisected between 2048 and 4096) and
        # criterion 5's first primitive (between 128 and 256), each over the
        # frequency of its axis of largest |psi_a|
        import corrugate.corrugation as corrugation

        if case == "clifford":
            w, prims = clifford_gap_primitives()
            args = (w, prims[0], normal_pair(w), 0.5 / 9, 0.125 / 9)
        else:
            searches = []
            search = corrugation.choose_lambda
            monkeypatch.setattr(corrugation, "choose_lambda",
                                lambda *args: searches.append(args) or search(*args))
            grid = PeriodicGrid((64,))
            nash_kuiper_iterate(unit_circle_map(grid), MetricField.identity(grid, 1.2**2),
                                IterationSchedule(epsilon=0.5, stages=2))
            monkeypatch.undo()
            args = searches[-1]
        params, _ = choose_lambda(*args)
        w, prim, frame, eta, delta = args
        p = float(np.max(np.abs(prim.psi_linear)))
        assert params.lam == frequency / p
        scales = TwoScale(w, prim, frame)
        assert scales.check(params.lam, eta, delta).ok
        assert not scales.check((frequency - 1) / p, eta, delta).ok


class TestRequiredGrid:
    @pytest.mark.parametrize("shape, k_vec, band, want", [
        ((64, 64), (0, 0), (0, 0), (64, 64)),      # never below the current grid
        ((64, 16), (8, 0), (0, 0), (64, 16)),      # 64 > 4 * 8
        ((64, 16), (16, 0), (0, 0), (128, 16)),    # 64 = 4 * 16 is not enough
        ((64, 64), (-44, 62), (1, 1), (192, 256)),  # 3 * 64 > 180, 4 * 64 > 252
        ((64, 64), (15, 0), (1, 20), (128, 128)),  # a band alone refines an axis
        ((256,), (1010,), (112,), (4608,)),        # 18 * 256 > 4 * 1122 = 4488
    ])
    def test_more_than_four_times_frequency_plus_bandwidth(self, shape, k_vec, band, want):
        grid = PeriodicGrid(shape)
        assert _required_grid(grid, grid, k_vec, band) == want

    @pytest.mark.parametrize("base, current, k, want", [
        (64, 192, 0, 192),   # the current grid suffices
        (64, 192, 50, 256),  # a multiple of 64, not of 192
        (48, 48, 24, 144),   # 3 * 48 > 96
    ])
    def test_multiple_of_the_input_grid_from_the_current_one_up(self, base, current, k, want):
        got = _required_grid(PeriodicGrid((base,)), PeriodicGrid((current,)), (k,), (0,))
        assert got == (want,)


class TestResamplePrimitive:
    def test_unresolved_amplitude_is_a_coverage_error(self):
        # a one-node spike on 16 nodes undershoots zero by 0.206 on 64: the
        # grid does not resolve the amplitude, a program limit (exit 3)
        amp = np.zeros(16)
        amp[5] = 1.0
        prim = PrimitiveMetric(amplitude=ScalarField(PeriodicGrid((16,)), amp),
                               psi_linear=[1.0], support_id=7)
        with pytest.raises(CoverageError, match=r"patch 7 undershoots zero by -2\.060e-01"):
            resample_primitive(prim, PeriodicGrid((64,)))


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
        # a whole frequency of the bisection between two doublings of LAMBDA_START
        assert lam > LAMBDA_START and (lam * prim.psi_linear[0]).is_integer()

    def test_refines_grid_when_needed(self):
        grid = PeriodicGrid((32, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid)
        params, fields = choose_lambda(w, prim, normal_pair(w),
                                       eta_budget=0.5, delta_budget=1e-6)
        assert params.lam == 8.0
        assert fields.grid.shape[0] >= 64  # more than 4|k| nodes at frequency 8

    def test_trial_fields_are_lifted_from_the_arguments(self):
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        x, _ = grid.meshes()
        prim = PrimitiveMetric(
            amplitude=ScalarField(grid, 1.0 + 0.3 * np.cos(x)),
            psi_linear=np.array([1.0, 0.0]))
        # sup a / lambda < eta needs lambda above 26; the bisection ends at
        # frequency 27, and the amplitude's bandwidth is 1, so the grid
        # refines 64 -> 128 (more than 4(27 + 1) nodes)
        params, fields = choose_lambda(w, prim, rotating_gauge_frame(grid),
                                       eta_budget=0.05, delta_budget=1e-2)
        assert params.lam == 27.0
        assert fields.grid.shape == (128, 16)
        w_lift = resample(w, fields.grid)
        prim_lift = resample_primitive(prim, fields.grid)
        assert np.max(np.abs(fields.w.periodic - w_lift.periodic)) <= 1e-12
        assert np.array_equal(fields.w.offsets, w.offsets)
        assert np.max(np.abs(fields.prim.amplitude.values
                             - prim_lift.amplitude.values)) <= 1e-12
        assert np.array_equal(fields.prim.psi_linear, prim.psi_linear)

    def test_clifford_torus_primitives_accepted_on_256_grids(self):
        # each primitive searched from the unperturbed map
        w, prims = clifford_gap_primitives()
        pair = normal_pair(w)
        found = []
        for prim in prims:
            params, fields = choose_lambda(w, prim, pair, 0.5 / 9, 0.05)
            found.append((params.lam * np.max(np.abs(prim.psi_linear)), fields.grid.shape))
        # whole frequencies 37, 37 and 31 on the axis of largest |psi_a|,
        # 0.762, at lambda 48.55 and 40.68: frequencies (26, +-37) and (31, 0),
        # bandwidth 1
        assert found == [(37.0, (128, 192)), (37.0, (128, 192)), (31.0, (192, 64))]

    def test_clifford_searches_build_one_frame_above_64_squared_and_one_fine_check(
            self, monkeypatch):
        import corrugate.corrugation as corrugation

        frames, checks = [], []
        monkeypatch.setattr(corrugation, "normal_pair", lambda w_f: frames.append(
            w_f.grid.shape) or normal_pair(w_f))
        monkeypatch.setattr(corrugation, "check_stage_estimates", lambda *args: checks.append(
            args[0].grid.shape) or check_stage_estimates(*args))
        w, prims = clifford_gap_primitives()
        pair = normal_pair(w)
        for prim in prims:
            frames.clear()
            checks.clear()
            _, fields = choose_lambda(w, prim, pair, 0.5 / 9, 0.05)
            assert [shape for shape in frames if shape != (64, 64)] == [fields.grid.shape]
            assert checks == [fields.grid.shape]

    def test_torus_grids_hold_under_a_one_percent_change_of_the_metric(self):
        # sine modes of sup norm 0.01 per component, as the benchmark's seeds
        # add: the amplitudes' last mode above ALIAS_TOL moves between 5 and 8
        # with the change, a^2's bandwidth stays 2, and the grids stay put
        grid = PeriodicGrid((64, 64))
        x, y = grid.meshes()
        modes = np.stack([np.sin(kx * x + ky * y) for kx, ky in
                          ((1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2))], axis=-1)
        rng = np.random.default_rng(3)
        grids = set()
        for _ in range(4):
            coeffs = rng.uniform(-1.0, 1.0, (6, 3))
            w, prims = clifford_gap_primitives(modes @ (0.01 * coeffs / np.abs(coeffs).sum(0)))
            pair = normal_pair(w)
            grids.add(tuple(choose_lambda(w, prim, pair, 0.5 / 9, 0.05)[1].grid.shape
                            for prim in prims))
        assert grids == {((128, 192), (128, 192), (192, 64))}

    def test_held_grid_frame_is_built_once_per_search(self, monkeypatch):
        # every reading whose trial grid is finer than 64^2 reads the frame of
        # the map on 64^2 (about six readings per search here); one is built
        import corrugate.corrugation as corrugation

        frames = []
        monkeypatch.setattr(corrugation, "normal_pair", lambda w_f: frames.append(
            w_f.grid.shape) or normal_pair(w_f))
        w, prims = clifford_gap_primitives()
        pair = normal_pair(w)
        for prim in prims:
            frames.clear()
            choose_lambda(w, prim, pair, 0.5 / 9, 0.05)
            assert frames.count(w.grid.shape) == 1

    def test_a_refused_trial_climbs_the_grid_ladder(self, monkeypatch):
        # no workload's fine check refuses a bisected lambda, so the check is
        # made to refuse the first two trials of the Clifford torus's first
        # primitive at torus_search's budgets
        import corrugate.corrugation as corrugation

        trials = []
        spiral, check = corrugation.spiral_perturbation, corrugation.check_stage_estimates
        monkeypatch.setattr(corrugation, "spiral_perturbation", lambda w_f, prim_f, frame, lam: (
            trials.append((lam, w_f.grid.shape)) or spiral(w_f, prim_f, frame, lam)))

        def refuse_two(*args):
            real = check(*args)
            return real._replace(incr_ok=real.incr_ok and len(trials) > 2)

        monkeypatch.setattr(corrugation, "check_stage_estimates", refuse_two)
        w, prims = clifford_gap_primitives()
        prim = prims[0]
        params, fields = choose_lambda(w, prim, normal_pair(w), 0.5 / 9, 0.05)
        band, square = _bands(w, prim)

        def grid_above(lam, held):
            """The grid the search needs for lambda 1e-9 relative above ``lam``."""
            k_vec = integer_phase(prim, lam * (1.0 + 1e-9))
            return _required_grid(w.grid, PeriodicGrid(held), k_vec, band, square)

        (lam0, shape0), (lam1, shape1), (lam2, shape2) = trials
        assert (lam0, shape0) == (37 / np.max(np.abs(prim.psi_linear)), (128, 192))
        # the largest lambda the same grid carries, then the largest on the next
        assert shape1 == shape0 and lam1 > lam0 and grid_above(lam1, shape1) != shape1
        assert shape2 == grid_above(lam1, shape1) and grid_above(lam2, shape2) != shape2
        assert lam2 < 2.0 * lam0  # never doubled
        assert (params.lam, fields.grid.shape) == (lam2, shape2)

    def test_node_cap_abort_names_the_dominant_term(self, monkeypatch):
        # lambda 8 to 256 fail their two-scale estimates on 64x16 (the increment
        # is (0.3/lambda)^2 at an integer lambda), so none of their grids is
        # built or checked against the cap. The bisection between 256 and 512
        # reads whole lambdas, and 300 reads the budget 1e-6 itself, so
        # rounding decides whether it ends at 300 or at 301; either frequency
        # needs 1280x16, over the cap, and the abort quotes the refusal one
        # frequency below it. The frame is parallel, so the cross term is 0
        monkeypatch.setattr(grid_module, "MAX_NODES", 2**12)
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid, lambda x, y: 1.0 + 0.3 * np.cos(x))
        with pytest.raises(NonconvergenceError) as err:
            choose_lambda(w, prim, normal_pair(w), eta_budget=1.0, delta_budget=1e-6)
        message = str(err.value)
        k = int(re.search(r"oscillation at frequency \((\d+), 0\)", message)[1])
        assert k in (300, 301)
        assert "needs grid (1280, 16), beyond the desk-scale cap of 4096 nodes" in message
        assert f"cap of 4096 nodes ({_trial_memory(1280 * 16)}); lambda" in message
        assert f"lambda {k - 1:.17g} failed two-scale estimate(s) increment" in message
        assert "cross term 0.000e+00" in message
        assert "the quadratic term dominates" in message

    def test_lambda_cap_abort_names_the_dominant_term(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid)
        prim = constant_primitive(grid, lambda x: 0.5 + 0.2 * np.cos(x))
        with pytest.raises(NonconvergenceError,
                           match=r"no lambda up to 16384 .* the cross term dominates"):
            choose_lambda(w, prim, normal_pair(w), eta_budget=1.0, delta_budget=1e-9)

    def test_lambda_cap_abort_quotes_the_reading_it_filtered_on(self, monkeypatch):
        # every lambda from 8 to 16384 passes C0 and is read once on two
        # scales; the abort quotes the last reading instead of reading again
        read = []
        original = TwoScale.check
        monkeypatch.setattr(TwoScale, "check", lambda self, lam, *budgets: read.append(
            lam) or original(self, lam, *budgets))
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid)
        prim = constant_primitive(grid, lambda x: 0.5 + 0.2 * np.cos(x))
        with pytest.raises(NonconvergenceError,
                           match=r"lambda 16384 failed two-scale .* the cross term dominates"):
            choose_lambda(w, prim, normal_pair(w), eta_budget=1.0, delta_budget=1e-9)
        assert read == [8.0 * 2**i for i in range(12)]

    @pytest.mark.parametrize("eta, delta", [
        (0.5, -1.0), (0.5, 0.0), (0.5, float("nan")), (-1.0, 1e-2), (float("nan"), 1e-2)])
    def test_bad_budget_refused_before_any_trial(self, monkeypatch, eta, delta):
        import corrugate.corrugation as corrugation

        trials = []
        monkeypatch.setattr(corrugation, "check_stage_estimates",
                            lambda *args: trials.append(args))
        monkeypatch.setattr(grid_module, "MAX_NODES", 2**12)
        grid = PeriodicGrid((64, 16))
        w = flat_strip_map(grid)
        with pytest.raises(InputError, match="budgets must be positive"):
            choose_lambda(w, constant_primitive(grid), normal_pair(w),
                          eta_budget=eta, delta_budget=delta)
        assert trials == []

    @pytest.mark.parametrize("w_shape, prim_shape, frame_shape", [
        ((64, 64), (32, 32), (64, 64)),
        ((64, 16), (32, 16), (64, 16)),
        ((64, 16), (64, 16), (32, 16)),
    ])
    def test_fields_off_the_map_grid_are_refused_before_any_reading(
            self, monkeypatch, w_shape, prim_shape, frame_shape):
        monkeypatch.setattr(TwoScale, "__init__",
                            lambda *args: pytest.fail("read before the grids were compared"))
        w = flat_strip_map(PeriodicGrid(w_shape))
        prim = constant_primitive(PeriodicGrid(prim_shape))
        frame = normal_pair(flat_strip_map(PeriodicGrid(frame_shape)))
        with pytest.raises(InputError, match="must share a grid") as err:
            choose_lambda(w, prim, frame, eta_budget=1.0, delta_budget=1e-6)
        assert err.value.exit_code == 2

    def test_every_frame_meets_the_seam_tolerance(self, monkeypatch):
        import dataclasses

        import corrugate.corrugation as corrugation

        grid = PeriodicGrid((32, 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid)
        torn = dataclasses.replace(normal_pair(w), seam_mismatch=1.0)
        with pytest.raises(StageError, match="seam"):
            choose_lambda(w, prim, torn, eta_budget=0.5, delta_budget=1e-6)
        # the frame rebuilt on the refined grid (lambda 8 needs 64 nodes)
        monkeypatch.setattr(corrugation, "normal_pair", lambda w_f: dataclasses.replace(
            normal_pair(w_f), seam_mismatch=1.0))
        with pytest.raises(StageError, match="seam"):
            choose_lambda(w, prim, normal_pair(w), eta_budget=0.5, delta_budget=1e-6)

    def test_first_torus_search_peaks_under_40_doubles_per_node(self):
        # criterion 5's first search: lambda 173.2 on 384x576, read at 38.1. The
        # peak counts the trial grids' lifts, frames, spirals and checks, not the
        # 64^2 inputs; the node-cap abort quotes memory at this rate
        import tracemalloc

        w, prims = clifford_gap_primitives()
        pair = normal_pair(w)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, fields = choose_lambda(w, prims[0], pair, 0.5 / 9, 0.125 / 9)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert fields.grid.shape == (384, 576)
        assert peak / (8 * fields.grid.num_nodes) <= TRIAL_PEAK_DOUBLES == 40

    def test_accepted_trial_check_holds_under_14_doubles_per_node(self):
        # the streamed fine check on criterion 5's accepted 384x576 trial reads
        # 13.0 doubles per node above its inputs; with the whole increment and
        # its derivative stack built it read 21.0
        import tracemalloc

        w, prims = clifford_gap_primitives()
        _, fields = choose_lambda(w, prims[0], normal_pair(w), 0.5 / 9, 0.125 / 9)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            check = check_stage_estimates(fields.w, fields.w_next, fields.prim,
                                          0.5 / 9, 0.125 / 9)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert check.ok and fields.grid.shape == (384, 576)
        assert peak / (8 * fields.grid.num_nodes) <= 14.0

    def test_trial_memory_reads_the_pinned_peak(self):
        # a grid twice the default cap, criterion 5's 3.28M-node grid, and the
        # 1280x16 grid of the node-cap abort
        assert _trial_memory(4096 * 2048) == "about 2.5 GiB at 40 doubles per node"
        assert _trial_memory(1280 * 2560) == "about 1000 MiB at 40 doubles per node"
        assert _trial_memory(1280 * 16) == "about 6 MiB at 40 doubles per node"


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
        # the sequential-primitive frequency feedback drives the lambda
        # search past any desk-scale grid cap already on the first
        # primitive; the honest outcome at these budgets is nonconvergence
        # (the acceptance suite runs the full default cap)
        monkeypatch.setattr(grid_module, "MAX_NODES", 2**18)
        grid = PeriodicGrid((64, 64))
        w = clifford_map(grid, r=1.0)
        g = MetricField.identity(grid, 1.5**2)
        with pytest.raises(NonconvergenceError):
            run_stage(w, g, eta=0.5, delta=0.25)

    def test_torus_stage_quotes_the_cap_in_force(self, monkeypatch):
        monkeypatch.setattr(grid_module, "MAX_NODES", 2**12)
        grid = PeriodicGrid((64, 64))
        w = clifford_map(grid, r=1.0)
        with pytest.raises(NonconvergenceError, match="cap of 4096 nodes"):
            run_stage(w, MetricField.identity(grid, 1.5**2), eta=0.5, delta=0.25)

    def test_one_spiral_per_trial_and_the_stage_returns_the_accepted_map(self, monkeypatch):
        import corrugate.corrugation as corrugation

        spirals, checks = [], []
        spiral, check = corrugation.spiral_perturbation, corrugation.check_stage_estimates

        def counted_check(*args):
            checks.append((args[1], check(*args)))  # (w_next, its measured estimates)
            return checks[-1][1]

        monkeypatch.setattr(corrugation, "spiral_perturbation",
                            lambda *args: spirals.append(1) or spiral(*args))
        monkeypatch.setattr(corrugation, "check_stage_estimates", counted_check)
        grid = PeriodicGrid((64,))
        z, _ = run_stage(unit_circle_map(grid), MetricField.identity(grid, 1.2**2),
                         eta=0.25, delta=0.25)
        assert len(spirals) == len(checks) > 0
        accepted, result = checks[-1]
        assert result.ok
        assert z is accepted

    @pytest.mark.xfail(strict=True, reason="shortness is checked at the nodes only "
                       "(ROADMAP item 1 (a))")
    def test_circle_stage_is_short_between_its_nodes(self):
        # the stage returns at lambda 32 on 96 nodes with node margin +2.2e-4,
        # and the same map read on 192 nodes has margin -9.7e-4
        grid = PeriodicGrid((32,))
        (x,) = grid.meshes()
        g = MetricField(grid, (1.21 - 0.05 * np.cos(x - np.pi / 4))[..., None])
        w = unit_circle_map(grid)
        z, _ = run_stage(w, g, eta=0.5, delta=0.5)
        fine = PeriodicGrid((2 * z.grid.shape[0],))
        assert is_short(resample(z, fine), resample(g, fine))[0]

    def test_uncovered_gap_is_a_program_limit(self):
        # bump counts 1, 2 and 4 all leave a patch with alpha under the
        # floor; the stage names the last one tried
        w, g, delta = unresolved_cover_case()
        with pytest.raises(CoverageError, match="patch 4 of bump count 4 "):
            run_stage(w, g, eta=0.5, delta=delta)

    def test_input_grid_over_the_cap_refused_before_decomposing(self, monkeypatch):
        # the cap belongs to the grid: a stage input over it cannot be built
        monkeypatch.setattr(grid_module, "MAX_NODES", 2**10)
        with pytest.raises(InputError, match=r"grid \(64, 64\) has 4096 nodes, beyond "
                                             "the desk-scale cap of 1024 nodes"):
            PeriodicGrid((64, 64))


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
