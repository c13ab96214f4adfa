"""Minimum-norm solves, free-map verification, and the minimum-norm
velocity of the linearized isometry system, on the arrays the flow solves.

For a full-rank underdetermined system A w = v the minimum-Euclidean-norm
solution is w = A^T (A A^T)^{-1} v. Stacking, at every node, the first
derivatives (orthogonality equations) over the doubled second derivatives
(metric-rate equations) of a free map turns the linearized isometry system
into independent pointwise solves of exactly this shape.

The velocity's solve and its audit take component-major arrays, as the
derivative cache and the flow's batched inverse lay them out: a derivative
stack (rows, N) + nodes, metric rates (k,) + nodes, and the velocity
(N,) + nodes, each component one node array. Every Gram here is
``grid._component_products`` of such rows, and one determinant,
``_gram_det``, reads freeness for ``is_free`` and the velocity alike; on a
curve the velocity's solve and pivot floor reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, InputError, NonconvergenceError, SingularityError
from .grid import (
    ImmersionField,
    _check_finite,
    _component_products,
    _roll_axes,
    triangular_index_pairs,
)

#: relative pivot floor for the SPD factorization of A A^T
PIVOT_FLOOR = 1e-12

#: nodewise Gram determinant threshold for freeness
FREE_DET_TOL = 1e-10

#: a-posteriori tolerance on 2 dw . dwdot = hdot
LINEARIZATION_TOL = 1e-6


@dataclass
class LinearSystem:
    """Underdetermined full-rank systems A w = v, A (..., k, kappa), v (..., k)."""

    A: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.v = np.atleast_1d(np.asarray(self.v, dtype=float))
        _check_finite(self.A, "system matrix")
        _check_finite(self.v, "right-hand side")
        k, kappa = self.A.shape[-2:]
        if k > kappa:
            raise InputError(f"system must be underdetermined or square, got {k}x{kappa}")
        if self.v.shape != self.A.shape[:-1]:
            raise InputError(f"right-hand side shape {self.v.shape} != {self.A.shape[:-1]}")


def _spd_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram x = rhs for symmetric positive definite ``gram`` (batched
    over leading axes), refusing a smallest eigenvalue at or below
    PIVOT_FLOOR times the largest. ``rhs`` may hold only the trailing rows
    of the right-hand side; the rows it leaves out are zero.

    A 2x2 system is solved in closed form, by ``_solve_2x2``. A larger one
    takes one eigendecomposition V diag(lam) V^T: the eigenvalues give the
    floor, the eigenvectors the solve x = V diag(1/lam) V^T rhs.
    """
    if gram.shape[-1] == 2:
        p, q, r = gram[..., 0, 0], gram[..., 0, 1], gram[..., 1, 1]
        return np.stack(_solve_2x2(p, q, r, p * r - q * q, rhs), axis=-1)
    eigs, vecs = np.linalg.eigh(gram)
    _check_pivot(eigs[..., 0], eigs[..., -1])
    coef = np.einsum("...ji,...j->...i", vecs[..., -rhs.shape[-1]:, :], rhs) / eigs
    return np.einsum("...ij,...j->...i", vecs, coef)


def _solve_2x2(p: np.ndarray, q: np.ndarray, r: np.ndarray, det: np.ndarray,
               rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_spd_solve`` of [[p, q], [q, r]], its determinant ``det`` given, by
    Cramer's rule, the solution as a pair. The pivot: the large eigenvalue
    is high = (p + r)/2 + sqrt(((p - r)/2)^2 + q^2), the small one
    low = det/high, which avoids the cancellation in (p + r)/2 - sqrt(...)."""
    high = 0.5 * (p + r) + np.hypot(0.5 * (p - r), q)
    with np.errstate(divide="ignore", invalid="ignore"):
        _check_pivot(det / high, high)
    x0, x1 = -q * rhs[..., -1], p * rhs[..., -1]
    if rhs.shape[-1] == 2:
        x0, x1 = x0 + r * rhs[..., 0], x1 - q * rhs[..., 0]
    return x0 / det, x1 / det


def _check_pivot(low: np.ndarray, scale: np.ndarray):
    """Refuse a smallest eigenvalue at or below PIVOT_FLOOR times the largest
    (NaN counts as refused)."""
    if not (low > PIVOT_FLOOR * scale).all():
        worst = float(np.min(low / np.maximum(scale, 1e-300)))
        raise SingularityError(
            f"A A^T pivot below relative floor {PIVOT_FLOOR} (ratio {worst:.3e})")


def least_norm_solve(system: LinearSystem) -> np.ndarray:
    """omega = A^T (A A^T)^{-1} v: each A omega = v solved with minimal norm."""
    A, v = system.A, system.v
    rows = _roll_axes(A, 2)
    gram = _roll_axes(_component_products(rows, rows), -2)
    return np.einsum("...ia,...i->...a", A, _spd_solve(gram, v))


class FreeMapReport(NamedTuple):
    is_free: bool
    min_gram_det: float
    reason: str


def _derivative_stack(w: ImmersionField) -> np.ndarray:
    """First plus upper-triangular second derivatives, component-major:
    shape (m, N) + grid, from the component-major derivative cache."""
    upper = tuple(zip(*triangular_index_pairs(w.grid.dim)))
    second = _roll_axes(w.second_derivatives(), 3)[upper]
    return np.concatenate([_roll_axes(w.derivatives(), 2), second])


def _gram_det(gram: np.ndarray) -> np.ndarray:
    """Nodewise determinant of a component-major Gram (m, m) + nodes: in
    closed form for 2x2, by LU otherwise."""
    if len(gram) == 2:
        return gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[0, 1]
    return np.linalg.det(_roll_axes(gram, -2))


def is_free(w: ImmersionField) -> FreeMapReport:
    """Linear independence of first and second derivative vectors everywhere.

    Returns the minimal nodewise Gram determinant of the n + n(n+1)/2
    stacked vectors; a map into fewer than n(n+3)/2 dimensions is rejected
    outright by the dimension count.
    """
    n = w.grid.dim
    if w.ambient_dim < n * (n + 3) // 2:
        return FreeMapReport(False, 0.0, "dimension count")
    stack = _derivative_stack(w)
    min_det = float(np.min(_gram_det(_component_products(stack, stack))))
    return FreeMapReport(min_det > FREE_DET_TOL, min_det, "gram determinant")


def _check_free(det: np.ndarray):
    """Refuse lost freeness: a Gram determinant at or below FREE_DET_TOL (or
    NaN), the threshold ``is_free`` reads."""
    min_det = float(det.min())
    if not min_det > FREE_DET_TOL:
        raise NonconvergenceError(f"smoothed map lost freeness (gram det {min_det:.3e})")


def _min_norm_velocity(stack: np.ndarray, hdot: np.ndarray) -> np.ndarray:
    """Nodewise minimum-norm wdot with {d_j w . wdot = 0; -2 d_ij w . wdot =
    hdot_ij for i <= j}, component-major: the derivative stack of w
    (rows, N) + nodes, its k metric rows last, and the rates ``hdot``
    (k,) + nodes give wdot (N,) + nodes. Like ``is_free`` then
    ``_spd_solve`` of A A^T = S G S (G the stack's Gram, S the -2 on the
    metric rows), it refuses lost freeness by ``_gram_det`` of G
    (NonconvergenceError), then a pivot below the floor (SingularityError).
    On a curve G = [[p, q], [q, r]] and its one determinant serves all
    three: S G S = [[p, -2q], [-2q, 4r]] and det(S G S) = 4 det G, exactly;
    wdot comes out as contiguous component rows."""
    gram = _component_products(stack, stack)
    det = _gram_det(gram)
    _check_free(det)
    if len(stack) == 2:
        p, q, r = gram[0, 0], gram[0, 1], gram[1, 1]
        x0, x1 = _solve_2x2(p, -2.0 * q, 4.0 * r, 4.0 * det, hdot.T)
        return x0 * stack[0] - (2.0 * x1) * stack[1]
    gram, k = _roll_axes(gram, -2), len(hdot)
    scale = np.repeat([1.0, -2.0], [len(stack) - k, k])
    x = _spd_solve(gram * np.multiply.outer(scale, scale), _roll_axes(hdot, -1)) * scale
    return np.einsum("ia...,i...->a...", stack, _roll_axes(x, 1))


def _identity_residual(first: np.ndarray, dwdot: np.ndarray, hdot: np.ndarray) -> float:
    """The largest residual of 2 sym(dw^T dwdot) = hdot, verified at
    LINEARIZATION_TOL (NaN fails it), component-major: first derivatives of
    w and of wdot (d, N) + nodes and rates (k,) + nodes; each metric row
    (i, j), i <= j, is summed across the component rows."""
    resid = np.empty(hdot.shape)
    for k, (i, j) in enumerate(triangular_index_pairs(len(first))):
        ij = np.add.reduce(first[i] * dwdot[j], 0)
        ji = ij if i == j else np.add.reduce(first[j] * dwdot[i], 0)
        np.subtract(ij + ji, hdot[k], out=resid[k])
    worst = float(np.abs(resid).max())
    if not worst <= LINEARIZATION_TOL:
        raise ConsistencyError(
            f"linearization identity residual {worst:.3e} exceeds {LINEARIZATION_TOL:.1e}; "
            "discretization too coarse")
    return worst
