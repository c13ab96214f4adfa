"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion NN <name>: PASS|FAIL` line (visible with
pytest -s or in the captured output of failures). Criteria 5 and 6 state
contracts for the full two-dimensional stage and the four-stage driver;
the measured lambda growth of the sequential corrugation construction
exceeds the frequency cap at desk scale, so those runs abort and the
criteria fail honestly (details in the failure messages).
"""

import numpy as np
import pytest

from corrugate.corrugation import run_stage
from corrugate.decompose import active_count, global_decompose, reconstruct
from corrugate.driver import IterationSchedule, c1_cauchy_audit, nash_kuiper_iterate
from corrugate.errors import CorrugateError
from corrugate.flow import FlowConfig, run_flow, tracked_quantities
from corrugate.grid import (
    ImmersionField,
    MetricField,
    PeriodicGrid,
    ScalarField,
    derivative_sup,
    is_short,
    pullback_metric,
    resample,
    sup_norm,
)
from corrugate.leastnorm import LinearSystem, is_free, least_norm_solve
from corrugate.smoothing import (
    calibration_field,
    estimate_bench,
    smooth,
    smooth_eps_derivative,
)

from conftest import (
    clifford_map,
    flat_strip_map,
    random_spd_metric_field,
    unit_circle_map,
)
from test_corrugation import constant_primitive, rotating_gauge_frame
from test_smoothing import FROZEN_CEILINGS


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def test_criterion_01_pullback_exactness():
    grid = PeriodicGrid((64, 64))
    g = pullback_metric(clifford_map(grid, r=0.6))
    err = float(np.max(np.abs(g.matrices() - 0.36 * np.eye(2))))
    _report(1, "pullback-exactness", err <= 1e-10, f"max error {err:.2e}")


def test_criterion_02_decomposition():
    rng = np.random.default_rng(2024)
    grid = PeriodicGrid((32, 32))
    worst_err = 0.0
    worst_count = 0
    for _ in range(100):
        h = random_spd_metric_field(grid, rng, base=1.2, spread=0.5, max_mode=2)
        prims = global_decompose(h, bump_count=4)
        err = float(np.max(np.abs(reconstruct(prims, grid).comps - h.comps)))
        worst_err = max(worst_err, err)
        worst_count = max(worst_count, int(np.max(active_count(prims, grid))))
    _report(2, "decomposition", worst_err <= 1e-6 and worst_count <= 9,
            f"sup error {worst_err:.2e}, max active {worst_count}")


def test_criterion_03_exact_corrugation():
    from corrugate.corrugation import spiral_perturbation
    from corrugate.frame import normal_pair

    grid = PeriodicGrid((256, 16))
    w = flat_strip_map(grid)
    prim = constant_primitive(grid)
    wp = spiral_perturbation(w, prim, normal_pair(w), 8.0)
    err = sup_norm(pullback_metric(w + wp) - pullback_metric(w) - prim.tensor(), 0)
    _report(3, "exact-corrugation", err <= 1e-9, f"increment error {err:.2e}")


def test_criterion_04_lambda_rate():
    # generic (turning) frame gauge; the parallel-transported gauge
    # superconverges at 1/lambda^2 (see test_corrugation)
    from corrugate.corrugation import spiral_perturbation

    lams = [8.0, 16.0, 32.0, 64.0]
    errs = []
    for lam in lams:
        grid = PeriodicGrid((int(16 * lam), 16))
        w = flat_strip_map(grid)
        prim = constant_primitive(grid, lambda x, y: 1.0 + 0.3 * np.cos(x))
        wp = spiral_perturbation(w, prim, rotating_gauge_frame(grid), lam)
        errs.append(sup_norm(
            pullback_metric(w + wp) - pullback_metric(w) - prim.tensor(), 0))
    slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
    _report(4, "lambda-rate", -1.2 <= slope <= -0.8, f"slope {slope:+.3f}")


@pytest.mark.slow
def test_criterion_05_stage_contract():
    grid = PeriodicGrid((64, 64))
    w = clifford_map(grid, r=1.0)
    g = MetricField.identity(grid, 1.5**2)
    try:
        z, rep = run_stage(w, g, eta=0.5, delta=0.25)
    except CorrugateError as exc:
        _report(5, "stage-contract", False, f"stage aborted: {exc}")
        return
    g_final = resample(g, z.grid)
    short_ok, _ = is_short(z, g_final)
    deriv_ok = rep.c1_delta**2 <= 2.0 * 9**2 * rep.defect_before
    _report(5, "stage-contract",
            short_ok and rep.defect_after < 0.25 and deriv_ok,
            f"defect {rep.defect_after:.3g}")


@pytest.mark.slow
def test_criterion_06_driver():
    grid = PeriodicGrid((64, 64))
    v0 = clifford_map(grid, r=1.0)
    g = MetricField.identity(grid, 1.5**2)
    sched = IterationSchedule(epsilon=0.5, stages=4)
    try:
        u, rep = nash_kuiper_iterate(v0, g, sched)
    except CorrugateError as exc:
        done = len(getattr(exc, "partial_report", None).stage_reports
                   if getattr(exc, "partial_report", None) else [])
        _report(6, "driver", False,
                f"aborted after {done} stage(s): {exc}")
        return
    defect_ok = rep.final_defect <= sched.delta(4) + rep.stage_reports[-1].slack
    drift_ok = rep.c0_distance <= sched.epsilon / 2.0
    ratios, cauchy_ok = c1_cauchy_audit(rep)
    _report(6, "driver", defect_ok and drift_ok and cauchy_ok,
            f"defect {rep.final_defect:.3g}, drift {rep.c0_distance:.3g}")


def test_criterion_07_least_norm():
    rng = np.random.default_rng(77)
    worst_resid = 0.0
    min_ok = True
    perturbations = 0
    while perturbations < 100:
        k = int(rng.integers(1, 7))
        kappa = int(rng.integers(k, 13))
        A = rng.normal(size=(k, kappa))
        v = rng.normal(size=k)
        omega = least_norm_solve(LinearSystem(A, v))
        worst_resid = max(worst_resid, float(
            np.linalg.norm(A @ omega - v) / max(1.0, np.linalg.norm(v))))
        pinv_factor = A.T @ np.linalg.inv(A @ A.T)
        for _ in range(5):
            raw = rng.normal(size=kappa)
            kernel = raw - pinv_factor @ (A @ raw)
            min_ok &= np.linalg.norm(omega + kernel) >= np.linalg.norm(omega) - 1e-12
            perturbations += 1
    _report(7, "least-norm", worst_resid <= 1e-10 and min_ok,
            f"worst residual {worst_resid:.2e}, {perturbations} perturbations")


def test_criterion_08_free_map():
    circle = is_free(unit_circle_map(PeriodicGrid((128,)), ambient=2))
    circle_ok = circle.is_free and abs(circle.min_gram_det - 1.0) <= 1e-9
    grid = PeriodicGrid((16, 16))
    x, y = grid.meshes()
    torus4 = is_free(ImmersionField(
        grid, np.stack([np.cos(x), np.sin(x), np.cos(y), np.sin(y)], axis=-1)))
    torus_ok = (not torus4.is_free) and torus4.reason == "dimension count"
    _report(8, "free-map", circle_ok and torus_ok,
            f"circle det {circle.min_gram_det:.3e}")


def test_criterion_09_smoothing():
    grid = PeriodicGrid((256,))
    T = calibration_field(grid)
    rng = np.random.default_rng(9)
    f = ScalarField(grid, rng.normal(size=grid.shape))
    g = ScalarField(grid, rng.normal(size=grid.shape))
    eps = 0.3
    lin = smooth(ScalarField(grid, 2.0 * f.values - 0.5 * g.values), eps).values \
        - (2.0 * smooth(f, eps).values - 0.5 * smooth(g, eps).values)
    scale = sup_norm(f, 0) + sup_norm(g, 0)
    lin_ok = float(np.max(np.abs(lin))) <= 1e-12 * scale
    comm = smooth(f, eps).derivative(0).values - smooth(f.derivative(0), eps).values
    comm_ok = float(np.max(np.abs(comm))) <= 1e-12 * derivative_sup(f, 1)

    eps_grid = [2.0 ** (-j) for j in range(1, 7)]
    recs = estimate_bench(T, [(2, 0), (3, 1), (0, 2)], eps_grid)
    bench_ok = all(rec["max_ratio"] <= FROZEN_CEILINGS[(rec["family"], rec["r"], rec["s"])]
                   and rec["max_ratio"] <= 64.0 for rec in recs)

    exact = smooth_eps_derivative(T, eps).values
    def central_err(h):
        num = smooth(T, eps + h).values - smooth(T, eps - h).values
        return float(np.max(np.abs(num / (2 * h) - exact)))
    e1, e2 = central_err(1e-2), central_err(5e-3)
    fd_ok = e1 <= 5e-2 and e2 <= e1 / 3.0

    _report(9, "smoothing", lin_ok and comm_ok and bench_ok and fd_ok,
            f"bench max {max(r['max_ratio'] for r in recs):.3f}")


@pytest.mark.slow
def test_criterion_10_flow():
    grid = PeriodicGrid((256,))
    w0 = unit_circle_map(grid, ambient=2)
    zero = MetricField(grid, np.zeros(grid.shape + (1,)))

    u, diag = run_flow(w0, zero, FlowConfig(t0=10.0, t_end=15.0, tol=1e-10))
    drift = float(np.max(np.abs(u.values - w0.values)))
    stationary_ok = drift <= 1e-12 * len(diag.samples)

    alpha = 0.04
    h_const = MetricField(grid, np.full(grid.shape + (1,), alpha))
    u, diag_a = run_flow(w0, h_const, FlowConfig(t0=10.0, t_end=22.0, tol=1e-4))
    g11 = pullback_metric(u).component(0, 0)
    alpha_ok = float(np.max(np.abs(g11 - (1 + alpha)))) <= 1e-4

    (x,) = grid.meshes()
    h_cos = MetricField(grid, (0.02 * np.cos(2 * x))[..., None])
    u, diag_c = run_flow(w0, h_cos, FlowConfig(t0=10.0, t_end=22.0, tol=1e-3,
                                               smallness=0.4))
    cos_ok = diag_c.final_resid <= 1e-3

    audits_ok = True
    flags_ok = True
    for d in (diag_a, diag_c):
        audits_ok &= max(s.ortho_resid for s in d.samples) <= 1e-8
        audits_ok &= max(s.identity_resid for s in d.samples) <= 1e-6
        _, flags = tracked_quantities(d.samples, 10.0)
        flags_ok &= not any(flags.values())

    _report(10, "flow", stationary_ok and alpha_ok and cos_ok and audits_ok
            and flags_ok,
            f"drift {drift:.1e}, residuals {diag_a.final_resid:.1e}/"
            f"{diag_c.final_resid:.1e}")
