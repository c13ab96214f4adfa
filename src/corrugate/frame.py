"""Orthonormal normal pairs along immersed charts, in one discrete Coulomb gauge.

Codimension 2: the circle in R^3 and the torus in R^4 take one path. Each
node starts from its own pair (_start_pair). Each grid edge u -> v, seam
edges included, carries the link angle arg<z_v, z_u> of z = nu + i b, the
polar angle of u's pair projected onto v's normal plane. Each pair turns by
the running sum of (gauge link - measured link) from node 0 (_gauge_links),
so the frame is periodic by construction whenever the normal Euler number
is 0. Inside this module the pairs are stored components first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapabilityError, InputError, PropagationError
from .grid import ImmersionField, PeriodicGrid

UNIT_TOL = 1e-9
ORTHO_TOL = 1e-9
NORMAL_TOL = 1e-8


@dataclass
class FramePair:
    """Two unit, mutually orthogonal vector fields normal to an immersion.
    ``seam_mismatch`` is the largest angle by which a link of the pair, seam
    links included, misses its gauge link."""

    grid: PeriodicGrid
    nu: np.ndarray
    b: np.ndarray
    seam_mismatch: float = 0.0

    def validate(self, w: ImmersionField | None = None):
        # each test is written so that NaN fails it
        for name, vec in (("nu", self.nu), ("b", self.b)):
            norms = np.sqrt(np.einsum("...a,...a->...", vec, vec))
            if not np.all(np.abs(norms - 1.0) <= UNIT_TOL):
                raise InputError(f"{name} is not unit length within {UNIT_TOL}")
        dots = np.einsum("...a,...a->...", self.nu, self.b)
        if not np.all(np.abs(dots) <= ORTHO_TOL):
            raise InputError("frame vectors are not mutually orthogonal")
        if w is not None:
            for vec in (self.nu, self.b):
                tdots = np.einsum("...ia,...a->...i", w.derivatives(), vec)
                if not np.all(np.abs(tdots) <= NORMAL_TOL):
                    raise InputError("frame vector is not normal to the immersion")


def _dot(x, y):
    return np.einsum("a...,a...->...", x, y)


def _wrap(angle):  # into [-pi, pi]
    return angle - 2.0 * np.pi * np.rint(angle / (2.0 * np.pi))


def _start_pair(w: ImmersionField):
    """Each node's own pair: nu is the coordinate axis with the largest normal
    part, projected onto the normal plane, and b = Q nu / |Q|, Q = *(d_1 w ^
    ... ^ d_n w) the normal bivector. Refuses a map that is not an immersion."""
    der = w.derivatives()
    n, N = der.shape[-2:]
    n0 = np.einsum("...a,...a->...", der[..., 0, :], der[..., 0, :])
    if np.min(n0) <= 1e-24:
        raise InputError("zero tangent vector: not an immersion")
    # Pluecker coordinates: p[s] is the minor of the derivatives on the
    # columns S_s, and Q_ca = eps(S_s, c, a) p[s] on the other two columns
    d = np.moveaxis(der, (-2, -1), (0, 1))
    sets = list(combinations(range(N), n))
    p = np.stack([d[0, S[0]] if n == 1 else d[0, S[0]] * d[1, S[1]] - d[0, S[1]] * d[1, S[0]]
                  for S in sets])
    # |Q|^2 = |d_1 w|^2 |d_2 w - its part along d_1 w|^2
    if np.min(_dot(p, p) / n0) <= 1e-24:
        raise InputError("dependent tangent vectors: not an immersion")
    terms = []
    for s, S in enumerate(sets):
        c, a = sorted(set(range(N)) - set(S))
        sign = round(np.linalg.det(np.eye(N)[list(S) + [c, a]]))
        terms += [(c, a, s, sign), (a, c, s, -sign)]

    def turn(v):  # Q v: v's normal part turned a quarter turn, times |Q|
        out = np.zeros(v.shape)
        for c, a, s, sign in terms:
            out[c] += sign * p[s] * v[a]
        return out

    # |Q e_a|^2, the sum of p_S^2 over the S without a, is |Q|^2 times the
    # squared normal part of e_a
    part = np.zeros((N,) + w.grid.shape)
    for c, a, s, _ in terms:
        part[a] += p[s] ** 2
    axis_of = np.argmax(part, axis=0)
    del part
    # b is Q e_a normalized; then -Q b points along e_a's normal part
    b = turn(np.arange(N).reshape((N,) + (1,) * n) == axis_of)
    b /= np.sqrt(_dot(b, b))
    nu = turn(b)
    nu /= -np.sqrt(_dot(nu, nu))
    return nu, b


def _link_angles(nu, b, axis):
    """arg<z_v, z_u> of z = nu + i b on every edge u -> v = u + e_axis, seam
    edges included; entry u is the edge leaving u."""
    nu, b = np.moveaxis(nu, axis + 1, 1), np.moveaxis(b, axis + 1, 1)

    def dot(x, y):  # x at the edge's head v, y at its tail u
        return np.concatenate([_dot(x[:, 1:], y[:, :-1]), _dot(x[:, :1], y[:, -1:])])

    return np.moveaxis(np.arctan2(dot(nu, b) - dot(b, nu), dot(nu, nu) + dot(b, b)), 0, axis)


def _gauge_links(links):
    """Coulomb-gauge links for the measured ``links``, one array per axis.
    The torus's wrapped plaquette curvature Omega sums to 2 pi times the
    normal Euler number; a sum above pi refuses. The discrete curl of chi,
    -lap chi = Omega by one FFT, has curvature Omega and no divergence. Per
    axis, a constant closes the loop through node 0 with the least turn."""
    shape = links[0].shape
    gauge = [np.zeros(shape) for _ in links]
    if len(links) == 2:
        l0, l1 = links
        omega = _wrap(l0 + np.roll(l1, -1, 0) - np.roll(l0, -1, 1) - l1)
        total = float(np.sum(omega))
        if abs(total) > np.pi:
            raise PropagationError(f"normal Euler number {total / (2.0 * np.pi):.0f}: the "
                                   f"plaquette curvature sums to {total:.3e} rad, not 0")
        k0, k1 = np.arange(shape[0])[:, None], np.arange(shape[1] // 2 + 1)
        eig = 4.0 * (np.sin(np.pi * k0 / shape[0]) ** 2 + np.sin(np.pi * k1 / shape[1]) ** 2)
        eig[0, 0] = np.inf
        chi = np.fft.irfft2(np.fft.rfft2(omega) / eig, shape)
        gauge = [chi - np.roll(chi, 1, 1), np.roll(chi, 1, 0) - chi]
    for axis, (link, g) in enumerate(zip(links, gauge)):
        line = tuple(slice(None) if i == axis else 0 for i in range(len(shape)))
        g += _wrap(np.sum(link[line] - g[line])) / shape[axis]
    return gauge


def _coulomb_turn(nu, b) -> float:
    """Turn the pairs in place into the Coulomb gauge of their links.
    Returns the largest residual of a link against its gauge link."""
    dim = nu.ndim - 1
    links = [_link_angles(nu, b, axis) for axis in range(dim)]
    gauge = _gauge_links(links)
    # the running sums are kept in int64 fixed point, 2^62 to the turn: they
    # wrap every 4 turns, so their rounding does not grow with their turns
    unit = 2.0 ** 62 / (2.0 * np.pi)
    phi = np.zeros(nu.shape[1:], dtype=np.int64)
    for axis in range(dim):
        # edges along ``axis`` from index 0 of every later axis: a spanning tree
        line = (slice(None),) * (axis + 1) + (slice(0, 1),) * (dim - axis - 1)
        step = np.rint(_wrap(gauge[axis][line] - links[axis][line]) * unit).astype(np.int64)
        phi += np.cumsum(step, axis=axis) - step
    del links
    cos, sin = np.cos(phi / unit), np.sin(phi / unit)
    for x, y in zip(nu, b):
        x[...], y[...] = cos * x + sin * y, cos * y - sin * x
    return max(float(np.max(np.abs(_wrap(_link_angles(nu, b, axis) - gauge[axis]))))
               for axis in range(dim))


def normal_pair(w: ImmersionField) -> FramePair:
    """Unit orthonormal pair normal to the immersed chart, in the Coulomb
    gauge of the module docstring. Codimension 2 only. Cached on the map, as
    its derivatives are: every caller shares the pair, so none may write to it."""
    pair = getattr(w, "_normal_pair", None)
    if pair is not None:
        return pair
    if w.ambient_dim != w.grid.dim + 2:
        raise CapabilityError(f"normal pair needs codimension 2, got N={w.ambient_dim} "
                              f"on a {w.grid.dim}-dimensional chart")
    nu, b = _start_pair(w)
    mismatch = _coulomb_turn(nu, b)
    nu = np.moveaxis(nu, 0, -1).copy()
    b = np.moveaxis(b, 0, -1).copy()
    pair = FramePair(w.grid, nu, b, seam_mismatch=mismatch)
    # normal by construction (Q annihilates the tangents): check the rest
    pair.validate()
    w._normal_pair = pair
    return pair
