"""Minimum-norm solves, free-map verification, and the linearized isometry
operator.

For a full-rank underdetermined system A w = v the minimum-Euclidean-norm
solution is w = A^T (A A^T)^{-1} v. Stacking, at every node, the first
derivatives (orthogonality equations) over the doubled second derivatives
(metric-rate equations) of a free map turns the linearized isometry system
into independent pointwise solves of exactly this shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, InputError, SingularityError
from .grid import (
    ImmersionField,
    MetricField,
    _require_same_grid,
    symmetric_product,
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
    """Underdetermined full-rank system A w = v, A of shape (k, kappa)."""

    A: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.v = np.atleast_1d(np.asarray(self.v, dtype=float))
        k, kappa = self.A.shape
        if k > kappa:
            raise InputError(f"system must be underdetermined or square, got {k}x{kappa}")
        if self.v.shape != (k,):
            raise InputError(f"right-hand side length {self.v.shape} != {k}")


def _spd_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram x = rhs for symmetric positive definite ``gram`` (batched
    over leading axes) from one eigendecomposition V diag(lam) V^T: the
    eigenvalues give the relative pivot floor, the eigenvectors the solve
    x = V diag(1/lam) V^T rhs."""
    eigs, vecs = np.linalg.eigh(gram)
    low, scale = eigs[..., 0], eigs[..., -1]
    if np.any(low <= PIVOT_FLOOR * scale):
        worst = float(np.min(low / np.maximum(scale, 1e-300)))
        raise SingularityError(
            f"A A^T pivot below relative floor {PIVOT_FLOOR} (ratio {worst:.3e})")
    coef = np.einsum("...ji,...j->...i", vecs, rhs) / eigs
    return np.einsum("...ij,...j->...i", vecs, coef)


def least_norm_solve(system: LinearSystem) -> np.ndarray:
    """omega = A^T (A A^T)^{-1} v: solves A omega = v with minimal norm."""
    A, v = system.A, system.v
    gram = A @ A.T
    return A.T @ _spd_solve(gram, v)


class FreeMapReport(NamedTuple):
    is_free: bool
    min_gram_det: float
    reason: str


def _derivative_stack(w: ImmersionField) -> np.ndarray:
    """First plus upper-triangular second derivatives, shape grid + (m, N)."""
    first = w.derivatives()
    second = w.second_derivatives()
    rows = [first[..., a, :] for a in range(w.grid.dim)]
    rows += [second[..., i, j, :] for i, j in triangular_index_pairs(w.grid.dim)]
    return np.stack(rows, axis=-2)


def _free_stack(w: ImmersionField) -> tuple[np.ndarray | None, FreeMapReport]:
    """The derivative stack of ``w`` (None when the dimension count already
    fails) and the freeness report computed from it."""
    n = w.grid.dim
    needed = n * (n + 3) // 2
    if w.ambient_dim < needed:
        return None, FreeMapReport(False, 0.0, "dimension count")
    stack = _derivative_stack(w)
    gram = np.einsum("...ia,...ja->...ij", stack, stack)
    min_det = float(np.min(np.linalg.det(gram)))
    return stack, FreeMapReport(min_det > FREE_DET_TOL, min_det, "gram determinant")


def is_free(w: ImmersionField) -> FreeMapReport:
    """Linear independence of first and second derivative vectors everywhere.

    Returns the minimal nodewise Gram determinant of the n + n(n+1)/2
    stacked vectors; a map into fewer than n(n+3)/2 dimensions is rejected
    outright by the dimension count.
    """
    return _free_stack(w)[1]


def apply_L(w: ImmersionField, hdot: MetricField, *,
            check_tol: float = LINEARIZATION_TOL,
            free: tuple[np.ndarray | None, FreeMapReport] | None = None,
            ) -> ImmersionField:
    """Nodewise minimum-norm velocity wdot with 2 dw (.) dwdot = hdot.

    Solves, at every node, the stacked system {d_j w . wdot = 0 for all j;
    -2 d_ij w . wdot = hdot_ij for i <= j} and verifies the differential
    identity a posteriori at ``check_tol``. ``free`` is ``_free_stack(w)``
    when the caller has already built it; it is built here otherwise.
    """
    _require_same_grid(w, hdot)
    stack, report = _free_stack(w) if free is None else free
    if not report.is_free:
        raise InputError(f"map is not free ({report.reason}: {report.min_gram_det:.3e})")
    grid = w.grid
    d = grid.dim
    A = stack.copy()
    A[..., d:, :] *= -2.0
    rhs = np.concatenate([np.zeros(grid.shape + (d,)), hdot.comps], axis=-1)
    gram = np.einsum("...ia,...ja->...ij", A, A)
    sol = _spd_solve(gram, rhs)
    wdot_vals = np.einsum("...ia,...i->...a", A, sol)
    wdot = ImmersionField.from_periodic(grid, wdot_vals)
    residual = symmetric_product(w, wdot) * 2.0 - hdot
    worst = float(np.max(np.abs(residual.comps)))
    if worst > check_tol:
        raise ConsistencyError(
            f"linearization identity residual {worst:.3e} exceeds {check_tol:.1e}; "
            "discretization too coarse")
    return wdot
