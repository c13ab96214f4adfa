"""Orthonormal normal pairs along immersed charts, by orthogonal propagation.

A pair seeds at node (0,..,0) and travels by projection: each node takes
the previous node's pair, projects it onto its own normal space and
re-orthonormalizes. That step is written once, as _gram_schmidt followed
by _check_collapse, the one place a collapsed pair raises. Along a 1-D
path (the circle, the torus's seed column) the whole transport is one
prefix-product scan over the node projectors; the torus's rows then
advance together, one column per step. Fields are row-major, grid axes
first, so one column of a torus field is strided by a whole row; the row
sweep (_sweep_rows) copies SLAB_COLUMNS columns of the tangents at a time
into column-major order, steps on contiguous memory and writes the slab's
pairs back, returning the same row-major, C-contiguous arrays. Periodic
seam consistency is measured by _closure, not enforced; the mismatch
angle travels with the result so downstream stages can abort on
nontrivial holonomy.
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

#: columns the torus row sweep copies into column-major order at a time
SLAB_COLUMNS = 64


@dataclass
class FramePair:
    """Two unit, mutually orthogonal vector fields normal to an immersion.

    ``seam_mismatch`` is the residual closure angle across the periodic
    seam(s); ``holonomy`` is the raw rotation picked up by one full loop of
    parallel propagation (spread out in one dimension, see normal_pair).
    On the torus nothing is spread out, and ``holonomy`` is set to
    ``seam_mismatch``.
    """

    grid: PeriodicGrid
    nu: np.ndarray
    b: np.ndarray
    seam_mismatch: float = 0.0
    holonomy: float = 0.0

    def validate(self, w: ImmersionField | None = None):
        # each test is written so that NaN fails it
        for name, vec in (("nu", self.nu), ("b", self.b)):
            norms = np.linalg.norm(vec, axis=-1)
            if not np.all(np.abs(norms - 1.0) <= UNIT_TOL):
                raise InputError(f"{name} is not unit length within {UNIT_TOL}")
        dots = np.einsum("...a,...a->...", self.nu, self.b)
        if not np.all(np.abs(dots) <= ORTHO_TOL):
            raise InputError("frame vectors are not mutually orthogonal")
        if w is not None:
            der = w.derivatives()
            for vec in (self.nu, self.b):
                tdots = np.einsum("...ia,...a->...i", der, vec)
                if not np.all(np.abs(tdots) <= NORMAL_TOL):
                    raise InputError("frame vector is not normal to the immersion")


def _orthonormal_tangents(w: ImmersionField) -> np.ndarray:
    """Gram-Schmidt the derivative vectors nodewise, shape grid + (d, N)."""
    der = w.derivatives()
    n0 = np.linalg.norm(der[..., 0, :], axis=-1)
    if np.min(n0) <= 1e-12:
        raise InputError("zero tangent vector: not an immersion")
    if w.grid.dim == 1:
        return der / n0[..., None, None]
    det, t0, t1 = _gram_schmidt(der[..., 0, :], der[..., 1, :])
    # det = |t0|^2 |t1 - (t1.e0) e0|^2: the second residual is at most 1e-12
    if np.min(det / n0 ** 2) <= 1e-24:
        raise InputError("dependent tangent vectors: not an immersion")
    return np.stack([t0, t1], axis=-2)


def _project_normal(vec: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """Remove tangential components; ``tangents`` are orthonormal rows."""
    coeff = np.einsum("...ia,...a->...i", tangents, vec)
    return vec - np.einsum("...i,...ia->...a", coeff, tangents)


def _gram_schmidt(u: np.ndarray, v: np.ndarray):
    """Nodewise Gram determinant of the pair (u, v) and its Gram-Schmidt
    orthonormalization. The determinant is |u|^2 |v_perp|^2, free of the
    cancellation in g11 g22 - g12^2; a collapsed pair turns NaN, silently."""
    nu_n = np.linalg.norm(u, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        nu = u / nu_n
        b_perp = v - np.einsum("...a,...a->...", v, nu)[..., None] * nu
        b_n = np.linalg.norm(b_perp, axis=-1, keepdims=True)
        return ((nu_n * b_n)[..., 0]) ** 2, nu, b_perp / b_n


def _check_collapse(det: np.ndarray, label: str, first: int = 0):
    """Raise at the first node whose Gram determinant is below COLLAPSE_TOL
    (NaN counts as collapsed); ``first`` is the path index of det's entry 0."""
    collapsed = np.argwhere(~(det >= COLLAPSE_TOL))
    if len(collapsed):
        node = collapsed[0]
        value = float(det[tuple(node)])
        node[:1] += first
        raise PropagationError(f"projected pair nearly dependent at node "
                               f"{label}{tuple(int(i) for i in node)} (Gram det {value:.3e})")


def _step(nu: np.ndarray, b: np.ndarray, tangents: np.ndarray, node_label: str):
    """One transport step: project the pair onto the normal space of
    ``tangents``, re-orthonormalize it and refuse a collapse."""
    det, nu, b = _gram_schmidt(_project_normal(nu, tangents), _project_normal(b, tangents))
    _check_collapse(det, node_label)
    return nu, b


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
    return _gram_schmidt(prod @ nu0, prod @ b0)[1:]


def _transport(tangents: np.ndarray, nu0: np.ndarray, b0: np.ndarray,
               node_label: str = ""):
    """Transport the pair (nu0, b0) at node 0 along a path on axis 0.

    ``tangents`` has shape (n, d, N), orthonormal rows per node. The node
    sweep X_k = GS(P_k X_{k-1}) equals _scan's GS(P_k..P_1 X_0), because
    Gram-Schmidt acts on the right by an upper-triangular factor with a
    positive diagonal. Every step is then re-run once, vectorized, from the
    scanned pair at the node before, by the same _gram_schmidt and
    _check_collapse as _step: a Gram determinant below COLLAPSE_TOL raises,
    as in the sweep, and the step must reproduce the scanned pair within
    UNIT_TOL. Where it does not, the scan lost a direction that
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
        det, nu_p, b_p = _gram_schmidt(
            _project_normal(nu[start:end - 1], tangents[start + 1:end]),
            _project_normal(b[start:end - 1], tangents[start + 1:end]))
        gap = np.maximum(np.max(np.abs(nu_p - nu[start + 1:end]), axis=-1),
                         np.max(np.abs(b_p - b[start + 1:end]), axis=-1))
        bad = ~(det >= COLLAPSE_TOL) | ~(gap <= UNIT_TOL)  # NaN counts as bad
        stop = int(np.argmax(bad)) if np.any(bad) else len(bad) - 1
        _check_collapse(det[:stop + 1], node_label, start + 1)
        nu[start + 1:start + 2 + stop] = nu_p[:stop + 1]
        b[start + 1:start + 2 + stop] = b_p[:stop + 1]
        # the next scan covers twice the stretch this one held, so a path
        # that keeps losing its scan costs O(n log n), not O(n^2)
        start, span = start + 1 + stop, 2 * (stop + 1)
    return nu, b


def _sweep_rows(tangents: np.ndarray, nu: np.ndarray, b: np.ndarray):
    """Fill columns 1.. of the torus pair (nu, b) from its column 0, all
    rows advancing one column per step by _step, in slabs of SLAB_COLUMNS
    column-major columns (see the module docstring). Each step does the
    arithmetic it would do on the strided columns, so the pair is bit for
    bit that of a column-by-column sweep."""
    rows, cols, N = nu.shape
    slab = np.empty((SLAB_COLUMNS, rows) + tangents.shape[2:])
    nu_s = np.empty((SLAB_COLUMNS, rows, N))
    b_s = np.empty_like(nu_s)
    pair = nu[:, 0].copy(), b[:, 0].copy()
    for start in range(1, cols, SLAB_COLUMNS):
        width = min(SLAB_COLUMNS, cols - start)
        slab[:width] = np.swapaxes(tangents[:, start:start + width], 0, 1)
        for k in range(width):
            pair = _step(*pair, slab[k], f"(:, {start + k})")
            nu_s[k], b_s[k] = pair
        nu[:, start:start + width] = np.swapaxes(nu_s[:width], 0, 1)
        b[:, start:start + width] = np.swapaxes(b_s[:width], 0, 1)


def _seed_pair(tangents_at_start: np.ndarray, ambient: int):
    """Two coordinate axes by pivoted Gram-Schmidt of their normal residuals:
    the largest residual, then the largest once the first is removed, so the
    pair cannot collapse while the normal space has dimension >= 2."""
    residuals = _project_normal(np.eye(ambient), tangents_at_start)
    first = int(np.argmax(np.linalg.norm(residuals, axis=-1)))
    det, nu, b = _gram_schmidt(residuals[first], residuals)
    second = int(np.argmax(det))
    _check_collapse(det[second], "seed")
    return nu, b[second]


def _rotate(nu: np.ndarray, b: np.ndarray, angle):
    """Turn the pair (nu, b) by ``angle`` within its own plane."""
    c, s = np.cos(angle), np.sin(angle)
    return c * nu + s * b, -s * nu + c * b


def _closure(stepped, first) -> float:
    """Largest angle between a pair stepped across a seam and the pair it
    should meet there."""
    return float(max(np.max(np.arccos(np.clip(np.einsum("...a,...a->...", s, f), -1.0, 1.0)))
                     for s, f in zip(stepped, first)))


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
        raw = _transport(tangents, *_seed_pair(tangents[0], N))
        # loop holonomy of parallel transport (total torsion of the curve);
        # the bundle over the circle is trivial, so spreading the rotation
        # at a constant rate yields a continuous periodic frame; iterate the
        # rate because transport and rotation commute only to leading order
        rate = 0.0
        holonomy = None
        nu, b = raw
        for _ in range(16):
            nu_t, b_t = _rotate(*_step(nu[-1], b[-1], tangents[0], "(seam,)"), -rate / res)
            residual = float(np.arctan2(np.dot(nu_t, b[0]), np.dot(nu_t, nu[0])))
            if holonomy is None:
                holonomy = residual
            if abs(residual) <= 1e-12:
                break
            rate += residual
            nu, b = _rotate(*raw, -rate * np.arange(res)[:, None] / res)
        mismatch = _closure((nu_t, b_t), (nu[0], b[0]))
    else:
        nu = np.empty(grid.shape + (N,))
        b = np.empty_like(nu)
        # seed column: each row start propagates from the previous row start
        nu[:, 0], b[:, 0] = _transport(
            tangents[:, 0], *_seed_pair(tangents[0, 0], N), "seed column ")
        _sweep_rows(tangents, nu, b)
        mismatch = holonomy = max(
            _closure(_step(nu[:, -1], b[:, -1], tangents[:, 0], "(:, seam)"), (nu[:, 0], b[:, 0])),
            _closure(_step(nu[-1, :], b[-1, :], tangents[0, :], "(seam, :)"), (nu[0, :], b[0, :])))
    # the tangents are read no further; freed, they do not add to the peak
    # memory of validate's temporaries
    del tangents
    pair = FramePair(grid, nu, b, seam_mismatch=mismatch, holonomy=holonomy)
    # normality holds by construction (projection against the orthonormal
    # tangents); only the pair's own invariants need re-checking
    pair.validate()
    return pair
