"""Orthonormal normal pairs along immersed charts, by orthogonal propagation.

A pair seeds at node (0,..,0) and travels by projection: each node takes
the previous node's pair, projects it onto its own normal space and
re-orthonormalizes. Along a 1-D path (the circle, the torus's seed
column) the whole transport is one prefix-product scan over the node
projectors; the torus's rows then advance together, one column per step.
Periodic seam consistency is measured, not enforced; the mismatch angle
travels with the result so downstream stages can abort on nontrivial
holonomy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InputError, PropagationError
from .grid import ImmersionField, PeriodicGrid

#: projected-pair Gram determinant below this aborts the sweep
COLLAPSE_TOL = 1e-6

UNIT_TOL = 1e-9
ORTHO_TOL = 1e-9
NORMAL_TOL = 1e-8


@dataclass
class FramePair:
    """Two unit, mutually orthogonal vector fields normal to an immersion.

    ``seam_mismatch`` is the residual closure angle across the periodic
    seam(s); ``holonomy`` is the raw rotation picked up by one full loop of
    parallel propagation (spread out in one dimension, see normal_pair).
    """

    grid: PeriodicGrid
    nu: np.ndarray
    b: np.ndarray
    seam_mismatch: float = 0.0
    holonomy: float = 0.0

    def validate(self, w: ImmersionField | None = None):
        for name, vec in (("nu", self.nu), ("b", self.b)):
            norms = np.linalg.norm(vec, axis=-1)
            if np.max(np.abs(norms - 1.0)) > UNIT_TOL:
                raise InputError(f"{name} is not unit length within {UNIT_TOL}")
        dots = np.einsum("...a,...a->...", self.nu, self.b)
        if np.max(np.abs(dots)) > ORTHO_TOL:
            raise InputError("frame vectors are not mutually orthogonal")
        if w is not None:
            der = w.derivatives()
            for vec in (self.nu, self.b):
                tdots = np.einsum("...ia,...a->...i", der, vec)
                if np.max(np.abs(tdots)) > NORMAL_TOL:
                    raise InputError("frame vector is not normal to the immersion")

    def plane_projector(self) -> np.ndarray:
        """Nodewise orthogonal projector onto span{nu, b}."""
        return (np.einsum("...a,...c->...ac", self.nu, self.nu)
                + np.einsum("...a,...c->...ac", self.b, self.b))


def _orthonormal_tangents(w: ImmersionField) -> np.ndarray:
    """Gram-Schmidt the derivative vectors nodewise, shape grid + (d, N)."""
    der = w.derivatives()
    d = w.grid.dim
    out = np.empty_like(der)
    t0 = der[..., 0, :]
    n0 = np.linalg.norm(t0, axis=-1, keepdims=True)
    if np.min(n0) <= 1e-12:
        raise InputError("zero tangent vector: not an immersion")
    out[..., 0, :] = t0 / n0
    if d == 2:
        t1 = der[..., 1, :]
        t1 = t1 - np.einsum("...a,...a->...", t1, out[..., 0, :])[..., None] * out[..., 0, :]
        n1 = np.linalg.norm(t1, axis=-1, keepdims=True)
        if np.min(n1) <= 1e-12:
            raise InputError("dependent tangent vectors: not an immersion")
        out[..., 1, :] = t1 / n1
    return out


def _project_normal(vec: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """Remove tangential components; ``tangents`` are orthonormal rows."""
    coeff = np.einsum("...ia,...a->...i", tangents, vec)
    return vec - np.einsum("...i,...ia->...a", coeff, tangents)


def _gram_schmidt(nu_p: np.ndarray, b_p: np.ndarray):
    """Nodewise Gram-Schmidt of the pair, without a collapse check."""
    nu = nu_p / np.linalg.norm(nu_p, axis=-1, keepdims=True)
    b_perp = b_p - np.einsum("...a,...a->...", b_p, nu)[..., None] * nu
    return nu, b_perp / np.linalg.norm(b_perp, axis=-1, keepdims=True)


def _gram_det(nu_p: np.ndarray, b_p: np.ndarray) -> np.ndarray:
    g11 = np.einsum("...a,...a->...", nu_p, nu_p)
    g12 = np.einsum("...a,...a->...", nu_p, b_p)
    g22 = np.einsum("...a,...a->...", b_p, b_p)
    return g11 * g22 - g12 * g12


def _collapse_error(det: float, node_label: str, where: tuple) -> PropagationError:
    return PropagationError(
        f"projected pair nearly dependent at node {node_label}{where} (Gram det {det:.3e})")


def _renormalize(nu_p: np.ndarray, b_p: np.ndarray, node_label: str):
    """Gram-determinant collapse check, then Gram-Schmidt of the pair."""
    det = _gram_det(nu_p, b_p)
    collapsed = ~(det >= COLLAPSE_TOL)  # NaN counts as collapsed
    if np.any(collapsed):
        first = int(np.argmax(collapsed))
        where = tuple(int(i) for i in np.unravel_index(first, np.shape(det)))
        raise _collapse_error(float(np.ravel(det)[first]), node_label, where)
    return _gram_schmidt(nu_p, b_p)


def _scan(tangents: np.ndarray, nu0: np.ndarray, b0: np.ndarray):
    """GS(P_k..P_1 X_0) at every node k of a path on axis 0, X_0 = (nu0, b0).

    P_k = I - T_k^T T_k projects onto node k's normal space. The prefix
    products come from a doubling scan of about log2(n) batched matmuls,
    each product rescaled to unit Frobenius norm so that the cos(theta)
    contraction per step cannot underflow as a whole. A direction that
    contracts much faster than the rest can still vanish from a product;
    _transport detects that.
    """
    n, _, N = tangents.shape
    prod = np.einsum("kia,kic->kac", tangents, tangents)
    np.negative(prod, out=prod)
    prod[:, np.arange(N), np.arange(N)] += 1.0
    prod[0] = np.eye(N)
    shift = 1
    while shift < n:
        prod[shift:] = prod[shift:] @ prod[:-shift]
        prod[shift:] /= np.sqrt(np.einsum("kac,kac->k", prod[shift:], prod[shift:]))[:, None, None]
        shift *= 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return _gram_schmidt(prod @ nu0, prod @ b0)


def _transport(tangents: np.ndarray, nu0: np.ndarray, b0: np.ndarray,
               node_label: str = ""):
    """Transport the pair (nu0, b0) at node 0 along a path on axis 0.

    ``tangents`` has shape (n, d, N), orthonormal rows per node. The node
    sweep X_k = GS(P_k X_{k-1}) equals _scan's GS(P_k..P_1 X_0), because
    Gram-Schmidt acts on the right by an upper-triangular factor with a
    positive diagonal. Every step is then re-run once, vectorized, from the
    scanned pair at the node before: a Gram determinant below COLLAPSE_TOL
    raises, as in the sweep, and the step must reproduce the scanned pair
    within UNIT_TOL. Where it does not, the scan lost a direction that
    contracted much faster than the other (a planar curve whose pair starts
    in its plane does that), and it restarts from that node's step.
    Returns the re-run pairs, shape (n, N) each.
    """
    n, _, N = tangents.shape
    nu = np.empty((n, N))
    b = np.empty((n, N))
    nu[0], b[0] = nu0, b0
    start, span = 0, n
    while start < n - 1:
        end = min(n, start + span)
        nu[start:end], b[start:end] = _scan(tangents[start:end], nu[start], b[start])
        nu_p = _project_normal(nu[start:end - 1], tangents[start + 1:end])
        b_p = _project_normal(b[start:end - 1], tangents[start + 1:end])
        det = _gram_det(nu_p, b_p)
        with np.errstate(divide="ignore", invalid="ignore"):
            nu_p, b_p = _gram_schmidt(nu_p, b_p)
        gap = np.maximum(np.max(np.abs(nu_p - nu[start + 1:end]), axis=-1),
                         np.max(np.abs(b_p - b[start + 1:end]), axis=-1))
        bad = ~(det >= COLLAPSE_TOL) | ~(gap <= UNIT_TOL)  # NaN counts as bad
        stop = int(np.argmax(bad)) if np.any(bad) else len(bad) - 1
        if not det[stop] >= COLLAPSE_TOL:
            raise _collapse_error(float(det[stop]), node_label, (start + 1 + stop,))
        nu[start + 1:start + 2 + stop] = nu_p[:stop + 1]
        b[start + 1:start + 2 + stop] = b_p[:stop + 1]
        # the next scan covers twice the stretch this one held, so a path
        # that keeps losing its scan costs O(n log n), not O(n^2)
        start, span = start + 1 + stop, 2 * (stop + 1)
    return nu, b


def _seed_pair(tangents_at_start: np.ndarray, ambient: int):
    """Largest-residual coordinate axes after removing tangential parts."""
    residuals = np.stack([
        _project_normal(np.eye(ambient)[a], tangents_at_start) for a in range(ambient)])
    norms = np.linalg.norm(residuals, axis=-1)
    order = np.argsort(-norms, kind="stable")
    first, second = residuals[order[0]], residuals[order[1]]
    return _renormalize(first, second, "seed")


def _pair_angle(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.arccos(np.clip(np.einsum("...a,...a->...", u, v), -1.0, 1.0))


def normal_pair(w: ImmersionField) -> FramePair:
    """Unit orthonormal pair normal to the immersed chart (codimension >= 2).

    Seeds at node (0,..,0) and transports by projection. On the circle the
    whole loop is one scan (see _transport), and the loop holonomy is
    spread out as a constant-rate gauge rotation, producing a continuous
    periodic frame; the returned ``seam_mismatch`` is the residual closure
    angle (radians). On the torus the seed column is one scan, then all
    rows advance left to right together, one column per step; the mismatch
    is measured raw across both seams and left to the caller.
    """
    grid = w.grid
    if w.ambient_dim < grid.dim + 2:
        raise CapabilityError(
            f"normal pair needs codimension >= 2, got N={w.ambient_dim} on a "
            f"{grid.dim}-dimensional chart")
    tangents = _orthonormal_tangents(w)
    N = w.ambient_dim

    if grid.dim == 1:
        res = grid.shape[0]
        nu, b = _transport(tangents, *_seed_pair(tangents[0], N))
        # loop holonomy of parallel transport (total torsion of the curve);
        # the bundle over the circle is trivial, so spreading the rotation
        # at a constant rate yields a continuous periodic frame; iterate the
        # rate because transport and rotation commute only to leading order
        rate = 0.0
        holonomy = None
        nu_c, b_c = nu, b
        for _ in range(16):
            nu_t, b_t = _renormalize(
                _project_normal(nu_c[-1], tangents[0]),
                _project_normal(b_c[-1], tangents[0]), "(seam,)")
            step = -rate / res
            nu_t, b_t = (np.cos(step) * nu_t + np.sin(step) * b_t,
                         -np.sin(step) * nu_t + np.cos(step) * b_t)
            residual = float(np.arctan2(np.dot(nu_t, b_c[0]), np.dot(nu_t, nu_c[0])))
            if holonomy is None:
                holonomy = residual
            if abs(residual) <= 1e-12:
                break
            rate += residual
            angles = -rate * np.arange(res) / res
            ca, sa = np.cos(angles)[:, None], np.sin(angles)[:, None]
            nu_c = ca * nu + sa * b
            b_c = -sa * nu + ca * b
        mismatch = float(max(np.max(_pair_angle(nu_t, nu_c[0])),
                             np.max(_pair_angle(b_t, b_c[0]))))
        pair = FramePair(grid, nu_c, b_c, seam_mismatch=mismatch, holonomy=holonomy)
        pair.validate()
        return pair

    r1, r2 = grid.shape
    nu = np.empty((r1, r2, N))
    b = np.empty((r1, r2, N))
    # seed column: each row start propagates from the previous row start
    nu[:, 0], b[:, 0] = _transport(
        tangents[:, 0], *_seed_pair(tangents[0, 0], N), "seed column ")
    # sweep along rows; all rows advance one column per step
    for j in range(1, r2):
        nu[:, j], b[:, j] = _renormalize(
            _project_normal(nu[:, j - 1], tangents[:, j]),
            _project_normal(b[:, j - 1], tangents[:, j]), f"(:, {j})")

    nu_wrap_row, b_wrap_row = _renormalize(
        _project_normal(nu[:, -1], tangents[:, 0]),
        _project_normal(b[:, -1], tangents[:, 0]), "(:, seam)")
    nu_wrap_col, b_wrap_col = _renormalize(
        _project_normal(nu[-1, :], tangents[0, :]),
        _project_normal(b[-1, :], tangents[0, :]), "(seam, :)")
    mismatch = float(max(
        np.max(_pair_angle(nu_wrap_row, nu[:, 0])),
        np.max(_pair_angle(b_wrap_row, b[:, 0])),
        np.max(_pair_angle(nu_wrap_col, nu[0, :])),
        np.max(_pair_angle(b_wrap_col, b[0, :])),
    ))
    pair = FramePair(grid, nu, b, seam_mismatch=mismatch, holonomy=mismatch)
    # normality holds by construction (projection against the orthonormal
    # tangents); only the pair's own invariants need re-checking
    pair.validate()
    return pair
