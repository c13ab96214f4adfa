"""Decomposition of positive-definite tensor fields into primitive metrics.

A primitive metric is a rank-one tensor a^2 dpsi (x) dpsi. Any SPD field h
splits as a finite sum of them: at a center point, congruence-transport a
fixed rank-one basis onto h(p) and read off coefficient fields alpha_i with
alpha_i(p) = 1; a lattice of bump functions then glues the pointwise
splittings with bounded overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InputError
from .grid import (
    TWO_PI,
    MetricField,
    PeriodicGrid,
    ScalarField,
)

#: patch acceptance floor for the coefficient fields alpha_i
ALPHA_FLOOR = 0.05

#: patch radius shrink factor and retry count when alpha dips below the floor
SHRINK_FACTOR = 0.8
MAX_SHRINKS = 5

#: lattice patch radii in units of the lattice spacing; chosen so supports
#: cover the chart with overlap multiplicity at most dim+1
RADIUS_FACTOR = {1: 0.75, 2: 0.72}

#: |dpsi| at or below this inside an amplitude's support is refused
GRAD_TOL = 1e-12


def overlap_bound(n: int) -> int:
    """K(n) = n(n+1)^2/2: max primitives active at any point."""
    return n * (n + 1) ** 2 // 2


@dataclass(frozen=True)
class RankOneBasis:
    """Vectors v_1..v_J with linearly independent v_i (x) v_i, plus duals.

    The dual functionals are stored as symmetric matrices D_i so that
    L_i(A) = <D_i, A>_F and L_i(v_j (x) v_j) = delta_ij.
    """

    vectors: np.ndarray
    duals: np.ndarray

    def coefficients(self, mats: np.ndarray) -> np.ndarray:
        """Expansion coefficients of symmetric matrices, shape (..., J)."""
        return np.einsum("inm,...nm->...i", self.duals, mats)


def _duals_for(vectors: np.ndarray) -> np.ndarray:
    outer = np.einsum("in,im->inm", vectors, vectors)
    gram = np.einsum("inm,jnm->ij", outer, outer)
    inv = np.linalg.inv(gram)
    return np.einsum("ij,jnm->inm", inv, outer)


def rank_one_basis(n: int) -> RankOneBasis:
    """Fixed basis {e_i} plus {(e_i+e_j)/sqrt(2), i<j} with dual functionals."""
    if n not in (1, 2):
        raise InputError(f"rank-one basis supports n in {{1, 2}}, got {n}")
    vecs = [np.eye(n)[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            vecs.append((np.eye(n)[i] + np.eye(n)[j]) / np.sqrt(2.0))
    vectors = np.asarray(vecs)
    return RankOneBasis(vectors=vectors, duals=_duals_for(vectors))


def _eigh_ordered(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with descending eigenvalues and a fixed sign gauge
    (first component of magnitude > 1e-12 made positive)."""
    vals, vecs = np.linalg.eigh(M)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for col in range(vecs.shape[1]):
        v = vecs[:, col]
        lead = np.flatnonzero(np.abs(v) > 1e-12)
        if lead.size and v[lead[0]] < 0:
            vecs[:, col] = -v
    return vals, vecs


def congruence_match(M: np.ndarray, M_prime: np.ndarray) -> np.ndarray:
    """Invertible L with L^T M' L = M, built from eigen-square-roots.

    Both inputs must be SPD (min eigenvalue > 1e-10). With M = O D O^T and
    M' = O1 D1 O1^T, set U = O D^{-1/2}, U1 = O1 D1^{-1/2}; then
    L = U1 U^{-1}.
    """
    M = np.asarray(M, dtype=float)
    M_prime = np.asarray(M_prime, dtype=float)
    for name, mat in (("M", M), ("M'", M_prime)):
        if not np.allclose(mat, mat.T, atol=1e-12):
            raise InputError(f"{name} is not symmetric")
        low = float(np.min(np.linalg.eigvalsh(mat)))
        if low <= 1e-10:
            raise InputError(f"{name} is not positive definite: eigenvalue {low:.3e}")
    d_vals, O = _eigh_ordered(M)
    d1_vals, O1 = _eigh_ordered(M_prime)
    U = O @ np.diag(1.0 / np.sqrt(d_vals))
    U1 = O1 @ np.diag(1.0 / np.sqrt(d1_vals))
    return U1 @ np.linalg.inv(U)


@dataclass
class PrimitiveMetric:
    """Rank-one tensor a^2 dpsi (x) dpsi with psi linear, psi(x) = psi_linear . x;
    a spiral's phase lambda*psi is rounded to integer frequencies."""

    amplitude: ScalarField
    psi_linear: np.ndarray
    support_id: int = 0

    def __post_init__(self):
        if not isinstance(self.amplitude, ScalarField):
            raise InputError(f"primitive amplitude must be scalar, got {self.amplitude.kind} data")
        self.psi_linear = np.asarray(self.psi_linear, dtype=float)
        if self.psi_linear.shape != (self.grid.dim,):
            raise InputError("psi_linear must have one coefficient per axis")
        if float(np.min(self.amplitude.values)) < 0.0:
            raise InputError("primitive amplitude must be nonnegative")
        if np.linalg.norm(self.psi_linear) <= GRAD_TOL and np.any(self.amplitude.values > 0):
            raise InputError("dpsi vanishes inside the support of the amplitude")

    @property
    def grid(self) -> PeriodicGrid:
        return self.amplitude.grid

    @property
    def psi_periodic(self) -> ScalarField:
        """The periodic part of psi, zero on the primitive's grid."""
        return ScalarField.constant(self.grid, 0.0)

    def tensor(self) -> MetricField:
        a2 = self.amplitude.values**2
        mats = a2[..., None, None] * np.outer(self.psi_linear, self.psi_linear)
        return MetricField.from_matrices(self.grid, mats)


def _require_positive_definite(h: MetricField):
    low = float(np.min(h.eigenvalues_min()))
    if low <= 0.0:
        raise InputError(f"tensor field is not positive definite (min eigenvalue {low:.3e})")


def _pointwise_split(h_mats: np.ndarray, center_matrix: np.ndarray,
                     basis: RankOneBasis) -> tuple[np.ndarray, np.ndarray]:
    """Transported directions and coefficient fields for one center matrix.

    Returns (v, alphas): v[i] = L^T w_i satisfies sum_i v_i (x) v_i = M, and
    alphas (..., J) are the dual coefficients of h in the transported basis,
    normalized so alphas = 1 at any node where h equals M.
    """
    M_prime = np.einsum("in,im->nm", basis.vectors, basis.vectors)
    L = congruence_match(center_matrix, M_prime)
    v = basis.vectors @ L
    transported = RankOneBasis(vectors=v, duals=_duals_for(v))
    return v, transported.coefficients(h_mats)


def pointwise_decompose(h: MetricField, p) -> tuple[list[PrimitiveMetric], np.ndarray]:
    """Split h around the node ``p`` into J primitives with linear psi.

    Returns the primitives (amplitudes sqrt(alpha_i) clipped at zero) and
    the boolean validity mask where every alpha_i is positive; the
    reconstruction identity holds exactly on that region, and alpha_i = 1
    at the center node. A caller that needs a node covered checks the mask.
    """
    _require_positive_definite(h)
    grid = h.grid
    p = tuple(int(i) for i in np.atleast_1d(p))
    if len(p) != grid.dim:
        raise InputError("center node index must have one entry per axis")
    mats = h.matrices()
    basis = rank_one_basis(grid.dim)
    v, alphas = _pointwise_split(mats, mats[p], basis)
    valid = np.all(alphas > 0.0, axis=-1)
    prims = [
        PrimitiveMetric(
            amplitude=ScalarField(grid, np.sqrt(np.maximum(alphas[..., i], 0.0))),
            psi_linear=v[i],
            support_id=0,
        )
        for i in range(v.shape[0])
    ]
    return prims, valid


# ---------------------------------------------------------------------------
# bump lattice


def _patch_centers(grid: PeriodicGrid, m: int) -> list[np.ndarray]:
    """Lattice of patch centers; 2-D rows are offset by half a spacing
    (hex packing keeps ball-cover multiplicity at dim+1)."""
    s = TWO_PI / m
    if grid.dim == 1:
        return [np.array([i * s]) for i in range(m)]
    if m > 1 and m % 2:
        raise InputError("2-D bump lattice needs an even patch count (or 1)")
    centers = []
    for row in range(m):
        shift = (s / 2.0) if (row % 2) else 0.0
        for col in range(m):
            centers.append(np.array([col * s + shift, row * s]))
    return centers


def _bump_values(grid: PeriodicGrid, center: np.ndarray, radius: float) -> np.ndarray:
    """Compactly supported C^3 bump (1 - r^2)^4 in wrapped patch coordinates."""
    meshes = grid.meshes()
    r2 = np.zeros(grid.shape)
    for a in range(grid.dim):
        diff = np.mod(meshes[a] - center[a] + np.pi, TWO_PI) - np.pi
        r2 += (diff / radius) ** 2
    return np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** 4, 0.0)


def _nearest_node(grid: PeriodicGrid, center: np.ndarray) -> tuple[int, ...]:
    return tuple(int(np.rint(center[a] * grid.shape[a] / TWO_PI)) % grid.shape[a]
                 for a in range(grid.dim))


def global_decompose(h: MetricField, bump_count: int = 1) -> list[PrimitiveMetric]:
    """Decompose h over the whole chart with a ``bump_count``-per-axis lattice.

    Each patch contributes J(n) primitives modulated by a partition function
    phi_l = beta_l / sqrt(sum_k beta_k^2); at most K(n) primitives are
    nonzero at any node. A patch whose coefficients dip below the 0.05
    floor shrinks its radius (factor 0.8, up to 5 times) before failing.
    """
    _require_positive_definite(h)
    grid = h.grid
    if bump_count < 1:
        raise InputError("bump_count must be at least 1")
    mats = h.matrices()
    basis = rank_one_basis(grid.dim)
    centers = _patch_centers(grid, bump_count)
    radius0 = RADIUS_FACTOR[grid.dim] * TWO_PI / bump_count

    patches = []
    for ell, center in enumerate(centers):
        node = _nearest_node(grid, center)
        v, alphas = _pointwise_split(mats, mats[node], basis)
        accepted = None
        for shrink in range(MAX_SHRINKS + 1):
            radius = radius0 * SHRINK_FACTOR**shrink
            beta = _bump_values(grid, center, radius)
            support = beta > 0.0
            if not np.any(support):
                break
            if float(np.min(alphas[support])) > ALPHA_FLOOR:
                accepted = (beta, v, alphas)
                break
        if accepted is None:
            raise CoverageError(
                f"patch {ell} has no radius with all alpha > {ALPHA_FLOOR}; "
                f"try a larger bump_count than {bump_count}")
        patches.append(accepted)

    total = np.zeros(grid.shape)
    for beta, _, _ in patches:
        total += beta * beta
    if float(np.min(total)) <= 0.0:
        raise CoverageError(
            f"bump supports do not cover the chart at bump_count={bump_count}; "
            "try a larger count")
    multiplicity = sum((beta > 0).astype(int) for beta, _, _ in patches)
    if int(np.max(multiplicity)) > grid.dim + 1:
        raise CoverageError("patch overlap exceeds the dim+1 design bound")

    norm = np.sqrt(total)
    primitives = []
    for ell, (beta, v, alphas) in enumerate(patches):
        phi = beta / norm
        for i in range(v.shape[0]):
            amp = phi * np.sqrt(np.maximum(alphas[..., i], 0.0))
            primitives.append(PrimitiveMetric(
                amplitude=ScalarField(grid, amp),
                psi_linear=v[i],
                support_id=ell,
            ))
    if int(np.max(active_count(primitives, grid))) > overlap_bound(grid.dim):
        raise CoverageError("active primitive count exceeds K(n)")
    return primitives


def active_count(primitives, grid: PeriodicGrid) -> np.ndarray:
    """Nodewise count of primitives with nonzero amplitude."""
    return sum((p.amplitude.values > 0).astype(int) for p in primitives)
