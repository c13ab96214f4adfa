"""One corrugation stage: spiral perturbations realizing primitive metrics.

Adding w^p = (a/lambda)(nu cos(lambda psi) + b sin(lambda psi)) to an
immersion w with (nu, b) normal to w increases the pullback metric by
a^2 dpsi (x) dpsi up to an O(1/lambda) error while moving the map only
O(1/lambda). A stage decomposes the remaining metric gap into primitives
and adds one spiral per primitive, doubling lambda until the three
inductive estimates hold at measured (not assumed) accuracy.

Every phase psi is linear, and on a periodic chart the oscillation phase
lambda*psi must be periodic, so lambda*psi_linear is rounded to the nearest
integer frequency vector; the rounding error is O(1/lambda) and lands inside
the same measured budget as the construction's other first-order terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .decompose import PrimitiveMetric, global_decompose, overlap_bound
from .errors import (
    CoverageError,
    InputError,
    NonconvergenceError,
    ResolutionError,
    StageError,
)
from .frame import FramePair, normal_pair
from .grid import (
    ImmersionField,
    MetricField,
    PeriodicGrid,
    ScalarField,
    derivative_sups,
    is_short,
    pullback_metric,
    resample,
    sup_norm,
    triangular_index_pairs,
)

LAMBDA_START = 8.0
LAMBDA_CAP = 2.0**14

#: oscillation sampling rule: at least this many nodes per period
SAMPLES_PER_PERIOD = 16

#: desk-scale cap on total grid nodes a lambda search may request
MAX_NODES = 2**22

#: seam mismatch (radians) above which a stage refuses the frame
SEAM_TOL = 1e-6

#: bump lattices per axis the decomposition tries, coarsest first
BUMP_COUNTS = (1, 2, 4)


@dataclass(frozen=True)
class SpiralParams:
    """Accepted oscillation frequency."""

    lam: float


@dataclass
class StageReport:
    """Measured outcome of one stage."""

    c0_delta: float
    c1_delta: float
    defect_before: float
    defect_after: float
    lambdas: list[float] = field(default_factory=list)
    resolution: tuple[int, ...] = ()
    slack: float = 0.0

    CSV_HEADER = ["resolution", "c0_delta", "c1_delta", "defect_before",
                  "defect_after", "slack", "lambdas"]

    def csv_rows(self) -> list[list]:
        """The header row, then this stage's values (floats left as floats)."""
        return [list(self.CSV_HEADER), [
            "x".join(str(r) for r in self.resolution), self.c0_delta, self.c1_delta,
            self.defect_before, self.defect_after, self.slack, self.lambdas]]

    @classmethod
    def from_csv_row(cls, row) -> "StageReport":
        res, c0, c1, before, after, slack, lams = row
        return cls(
            c0_delta=float(c0), c1_delta=float(c1),
            defect_before=float(before), defect_after=float(after),
            lambdas=[float(v) for v in lams.split(";")] if lams else [],
            resolution=tuple(int(r) for r in res.split("x")),
            slack=float(slack),
        )


def integer_phase(prim: PrimitiveMetric, lam: float) -> np.ndarray:
    """Nearest integer frequency vector to lambda * psi_linear."""
    return np.rint(lam * prim.psi_linear).astype(int)


def spiral_perturbation(w: ImmersionField, prim: PrimitiveMetric,
                        frame: FramePair, lam: float) -> ImmersionField:
    """The increment (a/lambda)(nu cos(lambda psi) + b sin(lambda psi)).

    The phase lambda*psi, psi linear, is rounded to integer frequencies per
    axis so the increment is periodic; the grid must carry at least
    SAMPLES_PER_PERIOD nodes per oscillation period on every axis.
    """
    grid = w.grid
    if prim.grid.shape != grid.shape or frame.grid.shape != grid.shape:
        raise InputError("immersion, primitive, and frame must share a grid")
    if lam < 1.0:
        raise InputError("lambda must be at least 1")
    k_vec = integer_phase(prim, lam)
    for a, k in enumerate(k_vec):
        if k and grid.shape[a] < SAMPLES_PER_PERIOD * abs(int(k)):
            raise ResolutionError(
                f"axis {a}: {grid.shape[a]} nodes cannot carry "
                f"{SAMPLES_PER_PERIOD} samples per period at frequency {k}")
    phase = sum(k * mesh for k, mesh in zip(k_vec, grid.meshes()))
    amp = prim.amplitude.values / lam
    vals = (amp * np.cos(phase))[..., None] * frame.nu \
        + (amp * np.sin(phase))[..., None] * frame.b
    return ImmersionField.from_periodic(grid, vals)


class StageCheck(NamedTuple):
    """Measured triple of the inductive estimates plus pass flags.

    ``cross_err`` and ``quad_err`` are the sups of the two terms the metric
    increment error splits into (see check_stage_estimates); ``incr_err``
    is the sup of their sum, so it is at most cross_err + quad_err.
    """

    c0: float
    deriv_sq: float
    incr_err: float
    c0_ok: bool
    deriv_ok: bool
    incr_ok: bool
    cross_err: float
    quad_err: float

    @property
    def ok(self) -> bool:
        return self.c0_ok and self.deriv_ok and self.incr_ok

    def failing(self) -> str:
        names = [name for name, flag in
                 [("C0", self.c0_ok), ("derivative", self.deriv_ok),
                  ("increment", self.incr_ok)] if not flag]
        return ",".join(names) if names else "none"

    def measured(self) -> str:
        """The measured estimates, with the increment's split into terms and
        the name of the larger term."""
        larger = "cross" if self.cross_err >= self.quad_err else "quadratic"
        return (f"C0 {self.c0:.3e}, |D|^2 {self.deriv_sq:.3e}, increment "
                f"{self.incr_err:.3e} (cross term {self.cross_err:.3e}, quadratic "
                f"term {self.quad_err:.3e}; the {larger} term dominates)")


def _sup_root(sq: np.ndarray) -> float:
    """Sup over nodes of a norm, given its nodewise square."""
    return float(np.sqrt(np.max(sq)))


def check_stage_estimates(w_prev: ImmersionField, w_next: ImmersionField,
                          prim: PrimitiveMetric, eta_budget: float,
                          delta_budget: float) -> StageCheck:
    """Measure the three per-primitive estimates.

    C0 move below eta_budget, squared derivative move below twice the
    primitive's sup norm, and metric increment within delta_budget of the
    primitive tensor. Pure measurement; a zero primitive passes with zeros.

    With w = w_prev and the increment w^p = w_next - w_prev, the metric
    increment error splits exactly as

        w_next#e - w#e - a^2 dpsi(x)dpsi
            = 2 sym(dw^T dw^p) + (dw^p^T dw^p - a^2 dpsi(x)dpsi),

    the cross term and the quadratic term, reported as ``cross_err`` and
    ``quad_err``. So only the increment is differentiated (dw is w_prev's
    cached derivative), and the sum is free of the cancellation in the
    difference of two pullbacks. Each sup is the nodewise Frobenius norm of
    the symmetric tensor, sqrt(c00^2 + 2 c01^2 + c11^2) on the torus.
    """
    inc = w_next - w_prev
    lift = inc.values if np.any(inc.offsets) else inc.data
    c0 = _sup_root(np.einsum("...a,...a->...", lift, lift))
    dinc = inc.derivatives()
    deriv_sq = float(np.max(np.einsum("...ia,...ia->...", dinc, dinc)))
    dw = w_prev.derivatives()
    k = prim.psi_linear
    a2 = prim.amplitude.values ** 2
    sq_target = sq_cross = sq_quad = sq_incr = 0.0
    for i, j in triangular_index_pairs(w_prev.grid.dim):
        weight = 1.0 if i == j else 2.0
        target = a2 * k[i] * k[j]
        cross = np.einsum("...a,...a->...", dw[..., i, :], dinc[..., j, :])
        cross += (cross if i == j
                  else np.einsum("...a,...a->...", dw[..., j, :], dinc[..., i, :]))
        quad = np.einsum("...a,...a->...", dinc[..., i, :], dinc[..., j, :]) - target
        sq_target = sq_target + weight * target * target
        sq_cross = sq_cross + weight * cross * cross
        sq_quad = sq_quad + weight * quad * quad
        incr = cross + quad
        sq_incr = sq_incr + weight * incr * incr
    bound2 = 2.0 * _sup_root(sq_target)
    incr_err = _sup_root(sq_incr)
    return StageCheck(
        c0=c0, deriv_sq=deriv_sq, incr_err=incr_err,
        c0_ok=c0 < eta_budget,
        deriv_ok=(deriv_sq < bound2) or (deriv_sq <= 1e-14),
        incr_ok=incr_err < delta_budget,
        cross_err=_sup_root(sq_cross), quad_err=_sup_root(sq_quad),
    )


def resample_primitive(prim: PrimitiveMetric, new_grid: PeriodicGrid) -> PrimitiveMetric:
    """Lift a primitive to a finer grid.

    Trigonometric interpolation can undershoot zero near the support
    boundary of a compactly supported amplitude; undershoots at rounding
    scale are clipped, anything larger is an error.
    """
    amp = resample(prim.amplitude, new_grid).values
    low = float(np.min(amp))
    if low < -1e-6 * max(1.0, float(np.max(amp))):
        raise InputError(f"amplitude resample undershoots zero by {low:.3e}")
    return PrimitiveMetric(
        amplitude=ScalarField(new_grid, np.maximum(amp, 0.0)),
        psi_linear=prim.psi_linear.copy(),
        support_id=prim.support_id,
    )


class StageFields(NamedTuple):
    """Working fields at the grid where a lambda candidate was accepted."""

    w: ImmersionField
    prim: PrimitiveMetric
    frame: FramePair
    grid: PeriodicGrid


def _required_grid(grid: PeriodicGrid, k_vec) -> PeriodicGrid:
    shape = []
    for a, k in enumerate(k_vec):
        need = SAMPLES_PER_PERIOD * abs(int(k)) if k else grid.shape[a]
        res = grid.shape[a]
        while res < need:
            res *= 2
        shape.append(res)
    return PeriodicGrid(tuple(shape))


def _seam_checked(frame: FramePair) -> FramePair:
    if frame.seam_mismatch > SEAM_TOL:
        raise StageError(f"normal frame seam mismatch {frame.seam_mismatch:.3e} rad; "
                         "normal bundle not numerically trivial")
    return frame


def choose_lambda(w: ImmersionField, prim: PrimitiveMetric, frame: FramePair,
                  eta_budget: float, delta_budget: float) -> tuple[SpiralParams, StageFields]:
    """Doubling search from lambda = 8 until the measured estimates pass.

    Each trial runs on the grid its lambda's sampling rule demands. There
    the map and primitive are lifted from the arguments ``w`` and ``prim``,
    and the frame is swept on the lifted map; every frame, the given one
    too, is held to SEAM_TOL. Returns the first passing lambda together
    with the fields on the grid where it passed. A grid over MAX_NODES,
    read at call time, aborts the search with a message quoting the cap.
    """
    if not (eta_budget > 0.0 and delta_budget > 0.0):
        raise InputError(f"lambda search budgets must be positive, got eta "
                         f"{eta_budget!r} and delta {delta_budget!r}")
    lam = LAMBDA_START
    cur = StageFields(w=w, prim=prim, frame=_seam_checked(frame), grid=w.grid)
    last_check = None
    while lam <= LAMBDA_CAP:
        k_vec = integer_phase(prim, lam)
        needed = _required_grid(cur.grid, k_vec)
        if needed.num_nodes > MAX_NODES:
            tried = "" if last_check is None else (
                f"; the trial at lambda {lam / 2.0:.0f} failed estimate(s) "
                f"{last_check.failing()} with measured {last_check.measured()}")
            raise NonconvergenceError(
                f"oscillation at frequency {tuple(int(k) for k in k_vec)} needs grid "
                f"{needed.shape}, beyond the desk-scale cap of {MAX_NODES} nodes{tried}")
        if needed.shape != cur.grid.shape:
            w_f = resample(w, needed)
            cur = StageFields(
                w=w_f,
                prim=resample_primitive(prim, needed),
                frame=_seam_checked(normal_pair(w_f)),
                grid=needed,
            )
        wp = spiral_perturbation(cur.w, cur.prim, cur.frame, lam)
        last_check = check_stage_estimates(
            cur.w, cur.w + wp, cur.prim, eta_budget, delta_budget)
        if last_check.ok:
            return SpiralParams(lam), cur
        lam *= 2.0
    raise NonconvergenceError(
        f"no lambda up to {LAMBDA_CAP:.0f} meets the budgets "
        f"(eta {eta_budget:.3e}, delta {delta_budget:.3e}); last failing "
        f"estimate(s): {last_check.failing()} with measured {last_check.measured()}")


def run_stage(w: ImmersionField, g: MetricField, eta: float,
              delta: float) -> tuple[ImmersionField, StageReport]:
    """One full stage: from a strictly short w to a short z with defect < delta.

    Picks delta0 so that h = (1 - delta0) g - w#e is positive definite with
    ||delta0 g|| < delta/2, decomposes h into primitives, and adds spirals
    sequentially, recomputing the normal frame after each addition. The
    per-primitive budgets are eta/K(n) and (delta/2)/K(n). The primitives,
    ``g`` and ``w`` stay on the input grid and are lifted to the map's grid
    where they are read. An input grid over MAX_NODES is refused before
    anything is built on it; a lambda search past MAX_NODES aborts the stage.
    """
    if not (0.0 < eta < np.inf and 0.0 < delta < np.inf):
        raise InputError(f"stage budgets eta and delta must be finite and positive, "
                         f"got {eta!r} and {delta!r}")
    if w.grid.num_nodes > MAX_NODES:
        raise InputError(f"input grid {w.grid.shape} has {w.grid.num_nodes} nodes, "
                         f"beyond the desk-scale cap of {MAX_NODES} nodes")
    w.require_immersion()
    flag, margin = is_short(w, g, strict=True)
    if not flag:
        raise InputError(f"stage needs a strictly short start (margin {margin:.3e})")
    norm_g = sup_norm(g, 0)
    delta0 = min(delta / (2.0 * norm_g + 1e-12), 0.5 * margin / norm_g)
    h = (1.0 - delta0) * g - pullback_metric(w)
    if float(np.min(h.eigenvalues_min())) <= 0.0:
        raise StageError("metric gap lost positivity after the delta0 split")

    for count in BUMP_COUNTS:
        try:
            prims = global_decompose(h, bump_count=count)
            break
        except (CoverageError, InputError):
            if count == BUMP_COUNTS[-1]:
                raise

    K = overlap_bound(w.grid.dim)
    eta_budget = eta / K
    delta_budget = (delta / 2.0) / K

    defect_before = sup_norm(g - pullback_metric(w), 0)
    cur_w = w
    lambdas: list[float] = []

    for j, prim in enumerate(prims):
        params, fields = choose_lambda(
            cur_w, resample_primitive(prim, cur_w.grid), normal_pair(cur_w),
            eta_budget, delta_budget)
        wp = spiral_perturbation(fields.w, fields.prim, fields.frame, params.lam)
        cur_w = fields.w + wp
        lambdas.append(params.lam)
        ok, mid_margin = is_short(cur_w, resample(g, cur_w.grid))
        if not ok:
            raise StageError(
                f"shortness violated after primitive {j} (margin {mid_margin:.3e}); "
                f"lambdas so far {lambdas}")

    defect_after = sup_norm(resample(g, cur_w.grid) - pullback_metric(cur_w), 0)
    c0_delta, c1_delta = derivative_sups(cur_w - resample(w, cur_w.grid), 1)
    eps = float(np.finfo(float).eps)
    report = StageReport(
        c0_delta=c0_delta,
        c1_delta=c1_delta,
        defect_before=defect_before,
        defect_after=defect_after,
        lambdas=lambdas,
        resolution=cur_w.grid.shape,
        slack=10.0 * eps * (norm_g + defect_before) * max(1, len(lambdas)),
    )
    if report.c1_delta**2 > 2.0 * K * K * defect_before + report.slack:
        raise StageError(
            f"derivative move {report.c1_delta:.3e} breaks the 2K^2-defect "
            f"bound (defect before {defect_before:.3e})")
    return cur_w, report
