"""One corrugation stage: spiral perturbations realizing primitive metrics.

Adding w^p = (a/lambda)(nu cos(lambda psi) + b sin(lambda psi)) to an
immersion w with (nu, b) normal to w increases the pullback metric by
a^2 dpsi (x) dpsi up to an O(1/lambda) error while moving the map only
O(1/lambda). A stage decomposes the remaining metric gap into primitives
and adds one spiral per primitive, at a lambda whose three inductive
estimates hold at measured (not assumed) accuracy.

The spiral's metric error is a slow field times a trigonometric polynomial
of degree at most 2 in the fast phase, so each lambda is first read on two
scales (TwoScale), from slow fields on the grid the search holds: doubling
brackets the first lambda that reading passes, and bisection walks down the
bracket over whole frequencies of the axis with the largest |psi_a|, each
read at the lambda where that frequency is exact. Only then is a grid built
for a trial, whose fine check is the acceptance. An abort quotes the last
reading or check the search made.

Every phase psi is linear, and on a periodic chart the oscillation phase
lambda*psi must be periodic, so lambda*psi_linear is rounded to the nearest
integer frequency vector; the rounding error is O(1/lambda) and lands inside
the same measured budget as the construction's other first-order terms.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import grid as grid_module
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
    bandwidth,
    derivative_sups,
    is_short,
    pullback_metric,
    resample,
    spectral_derivative,
    spectral_gradient,
    sup_norm,
    triangular_index_pairs,
)

LAMBDA_START = 8.0
LAMBDA_CAP = 2.0**14

#: largest link residual (radians) above which a stage refuses the frame
SEAM_TOL = 1e-6

#: bump lattices per axis the decomposition tries, coarsest first
BUMP_COUNTS = (1, 2, 4)

#: phases theta at which TwoScale reads the increment: its squared norm is a
#: trigonometric polynomial of degree 4 in theta, read eight times per degree;
#: on criterion 5's first primitive they read within 4e-4 of 256 phases
PHASES = 32

#: phases in TwoScale.check's first product and the fewest in a later one,
#: which holds more only within BLOCK_DOUBLES doubles (4 MiB)
PHASE_BLOCK, BLOCK_DOUBLES = 4, 2**19

#: doubles per node of its accepted grid under which a lambda search's
#: traced peak stays (criterion 5's first search reads 38.1); a node-cap
#: abort quotes the memory the refused grid would take at this rate
TRIAL_PEAK_DOUBLES = 40


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
            resolution=PeriodicGrid(tuple(int(r) for r in res.split("x"))).shape,
            slack=float(slack),
        )


def integer_phase(prim: PrimitiveMetric, lam: float) -> np.ndarray:
    """Nearest integer frequency vector to lambda * psi_linear."""
    return np.rint(lam * prim.psi_linear).astype(int)


def _require_shared_grid(w: ImmersionField, prim: PrimitiveMetric, frame: FramePair):
    if prim.grid.shape != w.grid.shape or frame.grid.shape != w.grid.shape:
        raise InputError("immersion, primitive, and frame must share a grid")


def spiral_perturbation(w: ImmersionField, prim: PrimitiveMetric,
                        frame: FramePair, lam: float) -> ImmersionField:
    """The increment (a/lambda)(nu cos(lambda psi) + b sin(lambda psi)).

    The phase lambda*psi, psi linear, is rounded to integer frequencies per
    axis so the increment is periodic; an axis with at most 4|k| nodes is
    refused, since its nodes cannot read the increment's products alias-free.
    """
    grid = w.grid
    _require_shared_grid(w, prim, frame)
    if lam < 1.0:
        raise InputError("lambda must be at least 1")
    k_vec = integer_phase(prim, lam)
    for a, k in enumerate(k_vec):
        if grid.shape[a] <= 4 * abs(int(k)):
            raise ResolutionError(f"axis {a}: {grid.shape[a]} nodes cannot carry "
                                  f"frequency {k}, which needs more than {4 * abs(int(k))}")
    phase = sum(k * x for k, x in zip(k_vec, np.ix_(*grid.axes())))
    amp = prim.amplitude.values / lam
    vals = (amp * np.cos(phase))[..., None] * frame.nu \
        + (amp * np.sin(phase))[..., None] * frame.b
    return ImmersionField.from_periodic(grid, vals)


class StageCheck(NamedTuple):
    """Measured triple of the inductive estimates plus pass flags.

    ``cross_err`` and ``quad_err`` are the sups of the two terms the metric
    increment error splits into (see check_stage_estimates); ``incr_err``
    is the sup of their sum, so it is at most cross_err + quad_err. A
    two-scale reading (TwoScale.check) may stop after the first block of
    phases that reaches the budget; its incr_err is then the largest phase
    it read, and both terms are read at that phase.

    |D|^2, its flag and the split are read from ``late`` when first asked for:
    a reading refused on its increment needs none of them for its verdict.
    """

    c0: float
    incr_err: float
    c0_ok: bool
    incr_ok: bool
    late: Callable[[], tuple[float, bool, float, float]]
    deriv_sq = property(lambda self: self.late()[0])
    deriv_ok = property(lambda self: self.late()[1])
    cross_err = property(lambda self: self.late()[2])
    quad_err = property(lambda self: self.late()[3])

    @property
    def ok(self) -> bool:
        return self.c0_ok and self.incr_ok and self.deriv_ok

    def failing(self) -> str:
        names = [name for name, flag in
                 [("C0", self.c0_ok), ("derivative", self.deriv_ok),
                  ("increment", self.incr_ok)] if not flag]
        return ",".join(names) if names else "none"

    def failure(self) -> str:
        """The failing estimates, then every measured one, with the increment's
        split into terms and the name of the larger term."""
        larger = "cross" if self.cross_err >= self.quad_err else "quadratic"
        return (f"{self.failing()} with measured C0 {self.c0:.3e}, |D|^2 "
                f"{self.deriv_sq:.3e}, increment {self.incr_err:.3e} (cross term "
                f"{self.cross_err:.3e}, quadratic term {self.quad_err:.3e}; the "
                f"{larger} term dominates)")


def _sup_root(sq: np.ndarray) -> float:
    """Sup over nodes of a norm, given its nodewise square."""
    return float(np.sqrt(np.max(sq)))


def _weighted_sup(comps: np.ndarray, weights: np.ndarray) -> float:
    """Sup over nodes of the Frobenius norm of symmetric tensors given by their
    stored components ``comps`` (component axis first) and the ``weights`` of
    their squares; squares ``comps`` in place."""
    return _sup_root(weights @ np.square(comps, out=comps).reshape(len(weights), -1))


def _deriv_ok(prim: PrimitiveMetric, deriv_sq: float) -> bool:
    """|D w^p|^2 below 2 sup a^2|psi|^2, twice the primitive's sup norm, or
    at rounding scale."""
    psi = prim.psi_linear
    return deriv_sq < 2.0 * float(np.max(prim.amplitude.values ** 2)) * float(psi @ psi) \
        or deriv_sq <= 1e-14


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

    The increment is streamed one ambient component a at a time: its
    component w_next[..., a] - w_prev[..., a] gets its dim derivatives, plus
    the offsets' constant slopes, and is added into 2 + 2k node arrays (k =
    dim(dim+1)/2 metric components): the squared C0 lift, |D w^p|^2, and
    the k cross and k quadratic sums, which read dw at [..., i, a], one
    contiguous node array (the cache is component-major). The sups are
    taken after the last component, so neither the whole increment nor its
    derivative stack is ever built: criterion 5's accepted 384x576 trial's
    check holds 13.0 doubles per node above its inputs.
    """
    grid = w_prev.grid
    pairs = triangular_index_pairs(grid.dim)
    dw = w_prev.derivatives()
    slopes = w_next.offsets - w_prev.offsets
    # for the C0 lift's linear part, read only where the offsets differ (a
    # spiral adds none)
    meshes = grid.meshes() if np.any(slopes) else []
    c0_sq, deriv_sq = np.zeros(grid.shape), np.zeros(grid.shape)
    cross, quad = np.zeros((2, len(pairs)) + grid.shape)
    for a in range(w_prev.ambient_dim):
        inc = w_next.data[..., a] - w_prev.data[..., a]
        lift = inc + sum(m * s for m, s in zip(meshes, slopes[:, a])) if meshes else inc
        c0_sq += lift * lift
        del lift  # each array is freed once read, to keep the peak low
        dinc = [spectral_derivative(inc, grid, i) for i in range(grid.dim)]
        del inc
        for i, d in enumerate(dinc):
            d += slopes[i, a]
            deriv_sq += d * d
        for c, (i, j) in enumerate(pairs):
            cross[c] += dw[..., i, a] * dinc[j]
            if i != j:
                cross[c] += dw[..., j, a] * dinc[i]
            quad[c] += dinc[i] * dinc[j]
        del dinc
    c0, deriv_sq = _sup_root(c0_sq), float(np.max(deriv_sq))
    del c0_sq
    a2, k = prim.amplitude.values ** 2, prim.psi_linear
    for c, (i, j) in enumerate(pairs):
        if i == j:  # the loop added d_i w . d_i w^p once, and 2 sym counts it twice
            cross[c] *= 2.0
        quad[c] -= a2 * k[i] * k[j]
    weights = np.array([1.0 if i == j else 2.0 for i, j in pairs])
    incr_err = _weighted_sup(cross + quad, weights)
    cross_err, quad_err = _weighted_sup(cross, weights), _weighted_sup(quad, weights)
    return StageCheck(
        c0=c0, incr_err=incr_err, c0_ok=c0 < eta_budget, incr_ok=incr_err < delta_budget,
        late=lambda: (deriv_sq, _deriv_ok(prim, deriv_sq), cross_err, quad_err))


def _dot(x, y):
    return np.einsum("...a,...a->...", x, y)


@functools.cache
def _phase_rows(count: int) -> np.ndarray:
    """Rows (cos t, sin t, cos 2t, sin 2t) at ``count`` equispaced phases t,
    ``count`` a power of 2, in bit-reversed order: every prefix of the rows
    spreads over the whole circle."""
    bits = count.bit_length() - 1
    t = 2.0 * np.pi * np.array([int(format(i, f"0{bits}b")[::-1], 2)
                                for i in range(count)])[:, None] / count
    rows = np.hstack([np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)])
    rows.setflags(write=False)  # cached: every caller reads the same array
    return rows


class TwoScale:
    """The estimates of a spiral at any lambda, read on the grid of ``w``.

    With theta = k.x, k = integer_phase, kappa = k/lambda, U_i = d_i a nu +
    a d_i nu, V_i = d_i a b + a d_i b and A_i = d_i nu . b, the increment's
    derivative is d_i w^p = C_i cos theta + S_i sin theta, where C_i = U_i/lambda
    + a kappa_i b and S_i = V_i/lambda - a kappa_i nu. So C0 is sup a/lambda
    exactly, and since dw is normal to nu and b, the cross term is
    -(2a/lambda)(d_i d_j w.nu cos theta + d_i d_j w.b sin theta). The
    quadratic term is 1/2(C_i.C_j + S_i.S_j) - a^2 psi_i psi_j + 1/2(C_i.C_j -
    S_i.S_j) cos 2theta + 1/2(C_i.S_j + S_i.C_j) sin 2theta, where

        C_i.C_j = U_i.U_j/lambda^2 + (a^2/lambda)(kappa_i A_j + kappa_j A_i) + a^2 kappa_i kappa_j,

    S_i.S_j is the same with V in place of U, and C_i.S_j + S_i.C_j =
    (U_i.V_j + U_j.V_i)/lambda^2. The slow fields are built once, here, and
    each lambda costs arithmetic at the nodes. |D|^2 has a closed-form
    maximum over theta; the increment is read at PHASES phases.
    """

    def __init__(self, w: ImmersionField, prim: PrimitiveMetric, frame: FramePair):
        grid = w.grid
        self.frame, self.prim = frame, prim
        self.pairs = triangular_index_pairs(grid.dim)
        self.weights = np.array([1.0 if i == j else 2.0 for i, j in self.pairs])
        a = prim.amplitude.values
        da = spectral_gradient(a, grid)[..., None]
        dnu = spectral_gradient(frame.nu, grid)
        self.a2 = a * a
        self.a2_link = self.a2[..., None] * np.einsum("...ia,...a->...i", dnu, frame.b)
        u = da * frame.nu[..., None, :] + a[..., None, None] * dnu
        del dnu
        v = da * frame.b[..., None, :] + a[..., None, None] * spectral_gradient(frame.b, grid)
        uu = np.stack([_dot(u[..., i, :], u[..., j, :]) for i, j in self.pairs])
        vv = np.stack([_dot(v[..., i, :], v[..., j, :]) for i, j in self.pairs])
        uv = np.stack([_dot(u[..., i, :], v[..., j, :]) + _dot(u[..., j, :], v[..., i, :])
                       for i, j in self.pairs])
        del u, v
        hess = w.second_derivatives()
        # the parts at cos theta/lambda, sin theta/lambda, cos 2theta/lambda^2
        # and sin 2theta/lambda^2: the cross term, then the quadratic term's
        self.fast = np.stack([
            np.stack([-2.0 * a * _dot(hess[..., i, j, :], frame.nu) for i, j in self.pairs]),
            np.stack([-2.0 * a * _dot(hess[..., i, j, :], frame.b) for i, j in self.pairs]),
            (uu - vv) / 2.0, uv / 2.0])
        del hess
        self.even = (uu + vv) / 2.0
        diag = [c for c, (i, j) in enumerate(self.pairs) if i == j]
        self.trace_parts = [np.sum(part[diag], axis=0) for part in (self.even, *self.fast[2:])]
        self.a_max = float(np.max(a))

    def _mean(self, lam: float, kappa: np.ndarray) -> np.ndarray:
        """The increment's part constant in theta, one row per component."""
        psi = self.prim.psi_linear
        return np.stack([
            self.even[c] / lam**2
            + (kappa[i] * self.a2_link[..., j] + kappa[j] * self.a2_link[..., i]) / lam
            + self.a2 * (kappa[i] * kappa[j] - psi[i] * psi[j])
            for c, (i, j) in enumerate(self.pairs)])

    def _sup_sq(self, vals: np.ndarray) -> float:
        """Sup over nodes of the squared Frobenius norm of component rows ``vals``."""
        return float(np.max(self.weights @ (vals * vals).reshape(len(self.weights), -1)))

    def check(self, lam: float, eta_budget: float, delta_budget: float) -> StageCheck:
        """The three estimates in the form check_stage_estimates reports. The
        increment is read at PHASES phases in _phase_rows's order, one product
        per block of phases (see PHASE_BLOCK), up to the first block that
        reads at least delta_budget; a sampled phase never reads above the
        maximum over theta. Its cross and quadratic terms are read at the
        phase of its largest reading, when first asked for, as is |D|^2."""
        kappa = integer_phase(self.prim, lam) / lam
        mean = self._mean(lam, kappa).reshape(len(self.weights), -1)
        rows = _phase_rows(PHASES) * np.array([1.0, 1.0, 1.0 / lam, 1.0 / lam]) / lam
        fast = self.fast.reshape(4, -1)
        errs = []
        step = max(PHASE_BLOCK, BLOCK_DOUBLES // mean.size)
        for block in np.split(rows, range(PHASE_BLOCK, PHASES, step)):
            vals = (block @ fast).reshape(len(block), *mean.shape)
            vals += mean
            errs.extend(np.sqrt(np.max(self.weights @ np.square(vals, out=vals), axis=1)))
            if max(errs) >= delta_budget:
                break
        incr_err = float(max(errs))
        worst = rows[errs.index(incr_err)]

        @functools.cache
        def late() -> tuple[float, bool, float, float]:
            cross = worst[:2] @ fast[:2]
            quad = mean.ravel() + worst[2:] @ fast[2:]
            even, odd, mixed = self.trace_parts
            # |D w^p|^2 = (P + Q)/2 + (P - Q)/2 cos 2theta + R sin 2theta, with
            # P = sum |C_i|^2, Q = sum |S_i|^2 and R = sum C_i.S_i, peaks at its
            # mean plus hypot((P - Q)/2, R)
            deriv_sq = float(np.max(even / lam**2 + 2.0 * (self.a2_link @ kappa) / lam
                                    + self.a2 * (kappa @ kappa)
                                    + np.hypot(odd / lam**2, mixed / lam**2)))
            return (deriv_sq, _deriv_ok(self.prim, deriv_sq),
                    math.sqrt(self._sup_sq(cross)), math.sqrt(self._sup_sq(quad)))

        c0 = self.a_max / lam
        return StageCheck(c0=c0, incr_err=incr_err, c0_ok=c0 < eta_budget,
                          incr_ok=incr_err < delta_budget, late=late)


def resample_primitive(prim: PrimitiveMetric, new_grid: PeriodicGrid) -> PrimitiveMetric:
    """Lift a primitive to a finer grid.

    Trigonometric interpolation can undershoot zero near the support
    boundary of a compactly supported amplitude; undershoots at rounding
    scale are clipped. A larger one means the grid does not resolve the
    amplitude the decomposition built: a CoverageError naming the patch.
    """
    amp = resample(prim.amplitude, new_grid).values
    low = float(np.min(amp))
    if low < -1e-6 * max(1.0, float(np.max(amp))):
        raise CoverageError(f"amplitude of patch {prim.support_id} undershoots zero by "
                            f"{low:.3e} when resampled; its grid does not resolve it")
    return PrimitiveMetric(
        amplitude=ScalarField(new_grid, np.maximum(amp, 0.0)),
        psi_linear=prim.psi_linear.copy(),
        support_id=prim.support_id,
    )


class StageFields(NamedTuple):
    """Working fields on the accepted trial's grid, and w_next, the map it measured."""

    w: ImmersionField
    prim: PrimitiveMetric
    frame: FramePair
    w_next: ImmersionField | None = None

    @property
    def grid(self) -> PeriodicGrid:
        return self.w.grid


def _is_5_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def _required_grid(base: PeriodicGrid, grid: PeriodicGrid, k_vec, band,
                   square=None) -> tuple[int, ...]:
    """Per axis, the smallest n = m * (``base``'s size) with m 5-smooth (only
    prime factors 2, 3 and 5), n at least ``grid``'s size, n > 2(|k| + B) and
    n > 2(2|k| + Q): a spiral a e^{ik.x}, its slow factor of bandwidth B, has
    modes to |k| + B, and the products of it that the checks and the next
    stage read have modes to 2|k| + Q, Q the bandwidth of the square's slow
    factor, at most 2B (the default, which makes it n > 4(|k| + B)). A
    multiple of the base grid keeps the base's values at its nodes, and a
    5-smooth factor keeps the FFT fast. Returns a shape, so one over the node
    cap is explained before a grid refuses it."""
    shape = []
    for n0, res, k, b, q in zip(base.shape, grid.shape, k_vec, band,
                                [2 * b for b in band] if square is None else square):
        k = abs(int(k))
        m = -(-max(res, 2 * (k + b) + 1, 2 * (2 * k + q) + 1) // n0)
        while not _is_5_smooth(m):
            m += 1
        shape.append(n0 * m)
    return tuple(shape)


def _bands(w: ImmersionField, prim: PrimitiveMetric) -> tuple[list[int], list[int]]:
    """Per axis, the bandwidths _required_grid reads: B of the spiral's slow
    factor, the larger of ``w.data``'s and the amplitude's, and Q of its
    square, the amplitude squared's plus twice ``w.data``'s (standing in for
    the frame's products), at most 2B. Q is read, not bounded by 2B, because
    the decomposition builds a^2 as a partition weight squared times a
    coefficient linear in the metric gap: on one patch a band-limited gap
    gives a band-limited a^2, while a = sqrt(a^2) has a tail whose last mode
    above ALIAS_TOL moves with small changes of the gap."""
    band, square = [], []
    for a in range(w.grid.dim):
        b_w = bandwidth(w.data, a)
        band.append(max(b_w, bandwidth(prim.amplitude.data, a)))
        square.append(min(2 * band[-1], bandwidth(prim.amplitude.data ** 2, a) + 2 * b_w))
    return band, square


def _seam_checked(frame: FramePair) -> FramePair:
    if frame.seam_mismatch > SEAM_TOL:
        raise StageError(f"normal frame seam mismatch {frame.seam_mismatch:.3e} rad; "
                         "normal bundle not numerically trivial")
    return frame


def _trial_memory(nodes: int) -> str:
    """What a trial on ``nodes`` nodes would take at TRIAL_PEAK_DOUBLES."""
    mib = nodes * 8 * TRIAL_PEAK_DOUBLES / 2**20
    size = f"{mib / 2**10:.1f} GiB" if mib >= 2**10 else f"{mib:.0f} MiB"
    return f"about {size} at {TRIAL_PEAK_DOUBLES} doubles per node"


def _rung_top(prim: PrimitiveMetric, shape: tuple[int, ...], band, square) -> float:
    """The largest lambda, to 1e-12 relative and at most LAMBDA_CAP, whose
    frequency a grid of ``shape`` carries (see _required_grid): |rint(lambda
    psi_a)| <= min((n_a - 1)//2 - B_a, (n_a - 1 - 2 Q_a)//4)."""
    return min([LAMBDA_CAP] + [(min((n - 1) // 2 - b, (n - 1 - 2 * q) // 4) + 0.5)
                               * (1.0 - 1e-12) / abs(p)
                               for n, b, q, p in zip(shape, band, square, prim.psi_linear) if p])


def choose_lambda(w: ImmersionField, prim: PrimitiveMetric, frame: FramePair,
                  eta_budget: float, delta_budget: float) -> tuple[SpiralParams, StageFields]:
    """A lambda whose two-scale reading passes, found by doubling and then
    bisection, then up the grid ladder to the first whose fine check passes.

    The primitive and frame must be on ``w``'s grid. lambda is read on C0,
    then on two scales on ``w``'s grid with the frame its trial would read
    (``frame`` on that grid, else normal_pair(w)); it doubles from
    LAMBDA_START to the first reading that passes. Between the last refused
    and that lambda it bisects the whole frequency K of the axis with the
    largest p = |psi_a|, reading lambda = K/p, where that axis rounds
    nothing, and ends on a passing K whose K - 1 is refused. On a 1-D chart
    nothing is rounded at K/p and every term of the reading falls as
    1/lambda or 1/lambda^2, so K is in practice the first passing frequency,
    whereas the reading as a function of lambda is a comb of rounding errors
    that pass and fail in turn. A trial lifts the map and primitive to the
    grid _required_grid gives for its frequency and the bandwidths _bands
    measures once here, and builds its frame on the lift; every frame is
    held to SEAM_TOL. A trial the fine check refuses is followed by the
    largest lambda its grid carries, then by each next grid's largest
    (_rung_top). Returns the accepted lambda with the fields on its grid and
    their w_next. A grid over ``grid.MAX_NODES`` (read at call time) or
    lambda past LAMBDA_CAP aborts, quoting the last refusal; the node-cap
    abort also quotes the memory the refused grid would take (_trial_memory).
    """
    if not (eta_budget > 0.0 and delta_budget > 0.0):
        raise InputError(f"lambda search budgets must be positive, got eta "
                         f"{eta_budget!r} and delta {delta_budget!r}")
    _require_shared_grid(w, prim, frame)
    cur = StageFields(w=w, prim=prim, frame=_seam_checked(frame))
    band, square = _bands(w, prim)
    a_max = float(np.max(prim.amplitude.values))
    scales = None  # the slow fields on w's grid, for scales.frame
    own = None  # normal_pair(w), the frame a trial on a finer grid reads, built once

    def shape_of(lam):
        return _required_grid(w.grid, cur.grid, integer_phase(prim, lam), band, square)

    def read(lam) -> StageCheck | None:
        """lam's two-scale reading, None if C0 alone refuses it."""
        nonlocal scales, own
        if not a_max / lam < eta_budget:
            return None
        pair = frame
        if shape_of(lam) != w.grid.shape:
            own = pair = own or _seam_checked(normal_pair(w))
        if scales is None or scales.frame is not pair:
            scales = TwoScale(w, prim, pair)
        return scales.check(lam, eta_budget, delta_budget)

    def refusal(lam, check: StageCheck | None) -> str:
        why = f"C0 with measured C0 {a_max / lam:.3e}" if check is None else check.failure()
        return f"lambda {lam:.17g} failed two-scale estimate(s) {why}"

    def exhausted(why: str) -> NonconvergenceError:
        return NonconvergenceError(f"no lambda up to {LAMBDA_CAP:.17g} meets the budgets (eta "
                                   f"{eta_budget:.3e}, delta {delta_budget:.3e}); {why}")

    lam, last = LAMBDA_START, None  # last: the last refused lambda, which a node-cap abort quotes
    while not ((check := read(lam)) and check.ok):
        if 2.0 * lam > LAMBDA_CAP:
            raise exhausted(refusal(lam, check))
        lam, last = 2.0 * lam, lam
    if last:
        p = float(np.max(np.abs(prim.psi_linear)))
        low, high = (int(np.rint(x * p)) for x in (lam / 2.0, lam))
        while high - low > 1:
            mid = (low + high) // 2
            if (check := read(mid / p)) and check.ok:
                high, lam = mid, mid / p
            else:
                low, last = mid, mid / p
    scales = own = check = None  # freed before the trial's fields exist
    failed = ""  # the fine check's last refusal, else the last reading's, read again
    while True:
        shape = shape_of(lam)
        if math.prod(shape) > grid_module.MAX_NODES:
            why = failed or ("" if last is None else refusal(last, read(last)))
            raise NonconvergenceError(
                f"oscillation at frequency {tuple(int(k) for k in integer_phase(prim, lam))} "
                f"needs grid {shape}, beyond the desk-scale cap of {grid_module.MAX_NODES} "
                f"nodes ({_trial_memory(math.prod(shape))}){'; ' if why else ''}{why}")
        if shape != cur.grid.shape:
            w_f = resample(w, PeriodicGrid(shape))
            cur = StageFields(w=w_f, prim=resample_primitive(prim, w_f.grid),
                              frame=_seam_checked(normal_pair(w_f)))
        w_next = cur.w + spiral_perturbation(cur.w, cur.prim, cur.frame, lam)
        check = check_stage_estimates(cur.w, w_next, cur.prim, eta_budget, delta_budget)
        if check.ok:
            return SpiralParams(lam), cur._replace(w_next=w_next)
        failed = f"the trial at lambda {lam:.17g} failed estimate(s) {check.failure()}"
        top = _rung_top(prim, shape, band, square)
        if top <= lam:  # lam tops its grid: the next grid's top
            top = _rung_top(prim, shape_of(lam * (1.0 + 1e-9)), band, square)
        if top <= lam:
            raise exhausted(failed)
        lam = top


def run_stage(w: ImmersionField, g: MetricField, eta: float,
              delta: float) -> tuple[ImmersionField, StageReport]:
    """One full stage: from a strictly short w to a short z with defect < delta.

    Picks delta0 so that h = (1 - delta0) g - w#e is positive definite with
    ||delta0 g|| < delta/2, decomposes h into primitives, and adds spirals
    sequentially, recomputing the normal frame after each addition. The
    per-primitive budgets are eta/K(n) and (delta/2)/K(n). The primitives,
    ``g`` and ``w`` stay on the input grid and are lifted to the map's grid
    where they are read. A lambda search past the node cap aborts the stage.
    """
    if not (0.0 < eta < np.inf and 0.0 < delta < np.inf):
        raise InputError(f"stage budgets eta and delta must be finite and positive, "
                         f"got {eta!r} and {delta!r}")
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
        except CoverageError:
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
        cur_w = fields.w_next
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
