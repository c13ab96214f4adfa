"""Spectral smoothing operator family S_eps and its eps-derivative.

On a periodic chart, mollification is a Fourier multiplier: mode xi is
scaled by m(eps*|xi|) where m is 1 on [0, 1/2], 0 on [1, infinity) and a
C^4 polynomial step in between. Compact spectral support makes the
operator exact on band-limited grids and gives the derivative multiplier
|xi| * m'(eps*|xi|) vanishing flat near the origin, which is what powers
the eps-derivative estimates in the range r < s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .grid import ScalarField, derivative_sup, sup_norm


def _smoothstep4(u: np.ndarray) -> np.ndarray:
    """Order-4 smoothstep: C^4 monotone ramp from 0 at u<=0 to 1 at u>=1."""
    u = np.clip(u, 0.0, 1.0)
    return u**5 * (126.0 + u * (-420.0 + u * (540.0 + u * (-315.0 + u * 70.0))))


def _smoothstep4_derivative(u: np.ndarray) -> np.ndarray:
    inside = (u > 0.0) & (u < 1.0)
    uu = np.clip(u, 0.0, 1.0)
    return np.where(inside, 630.0 * (uu * (1.0 - uu)) ** 4, 0.0)


@dataclass(frozen=True)
class SmoothingKernel:
    """Spectral multiplier with unit flat region and compact support.

    m == 1 on [0, flat_end], m == 0 on [support_end, infinity), monotone
    nonincreasing C^4 transition in between.
    """

    flat_end: float = 0.5
    support_end: float = 1.0

    def multiplier(self, s) -> np.ndarray:
        u = (np.asarray(s, dtype=float) - self.flat_end) / (self.support_end - self.flat_end)
        return 1.0 - _smoothstep4(u)

    def multiplier_derivative(self, s) -> np.ndarray:
        width = self.support_end - self.flat_end
        u = (np.asarray(s, dtype=float) - self.flat_end) / width
        return -_smoothstep4_derivative(u) / width


DEFAULT_KERNEL = SmoothingKernel()


def _mode_magnitudes(grid) -> np.ndarray:
    """|xi| on the rfftn lattice of the grid (last grid axis halved)."""
    freqs = [np.fft.fftfreq(r, d=1.0 / r) for r in grid.shape[:-1]]
    freqs.append(np.fft.rfftfreq(grid.shape[-1], d=1.0 / grid.shape[-1]))
    return np.sqrt(sum(k * k for k in np.meshgrid(*freqs, indexing="ij")))


def _map_modes(field, eps: float, mode_fn):
    """Scale each Fourier mode xi of ``field`` by mode_fn(|xi|).

    An immersion's linear part is already smooth; only its periodic part
    carries modes.
    """
    if not (0.0 < eps <= 1.0):
        raise InputError(f"smoothing scale must lie in (0, 1], got {eps}")
    grid = field.grid
    axes = tuple(range(grid.dim))
    spec = np.fft.rfftn(field.data, axes=axes)
    factors = mode_fn(_mode_magnitudes(grid))
    spec *= factors.reshape(factors.shape + (1,) * (field.data.ndim - grid.dim))
    return field.with_data(grid, np.fft.irfftn(spec, s=grid.shape, axes=axes))


def smooth(field, eps: float, kernel: SmoothingKernel = DEFAULT_KERNEL):
    """S_eps: scale mode xi by m(eps*|xi|). Linear; exact identity on fields
    whose active modes satisfy eps*|xi| <= 1/2."""
    return _map_modes(field, eps, lambda k: kernel.multiplier(eps * k))


def smooth_eps_derivative(field, eps: float, kernel: SmoothingKernel = DEFAULT_KERNEL):
    """S'_eps = d/d(eps) S_eps: scale mode xi by |xi| * m'(eps*|xi|)."""
    return _map_modes(field, eps, lambda k: k * kernel.multiplier_derivative(eps * k))


def estimate_bench(field, pairs, eps_grid, kernel: SmoothingKernel = DEFAULT_KERNEL):
    """Measured constants for the three smoothing estimate families.

    For each (r, s) pair and each eps, the measured ratio is the left-hand
    side over eps^power * ||field||_s:

      family b (r >= s):  ||D^r(S_eps T)||_0     vs eps^(s-r)
      family c (any r,s): ||D^r(S'_eps T)||_0    vs eps^(s-r-1)
      family d (s >= r):  ||D^r(T - S_eps T)||_0 vs eps^(s-r)

    Returns a list of records {family, r, s, max_ratio} (max over the eps
    grid).
    """
    records = []
    norms = {}

    def norm_s(s):
        if s not in norms:
            norms[s] = sup_norm(field, s)
        return norms[s]

    for r, s in pairs:
        ratios_b, ratios_c, ratios_d = [], [], []
        for eps in eps_grid:
            sm = smooth(field, eps, kernel)
            smd = smooth_eps_derivative(field, eps, kernel)
            if r >= s:
                ratios_b.append(derivative_sup(sm, r) / (eps ** (s - r) * norm_s(s)))
            ratios_c.append(derivative_sup(smd, r) / (eps ** (s - r - 1) * norm_s(s)))
            if s >= r:
                diff = field - sm
                ratios_d.append(derivative_sup(diff, r) / (eps ** (s - r) * norm_s(s)))
        if ratios_b:
            records.append({"family": "b", "r": r, "s": s, "max_ratio": max(ratios_b)})
        records.append({"family": "c", "r": r, "s": s, "max_ratio": max(ratios_c)})
        if ratios_d:
            records.append({"family": "d", "r": r, "s": s, "max_ratio": max(ratios_d)})
    return records


def calibration_field(grid) -> ScalarField:
    """Standard benchmark field: sum over 1 <= k <= 16 of cos(k x)/k^2
    (per-axis sum on 2-D grids)."""
    meshes = grid.meshes()
    vals = np.zeros(grid.shape)
    for k in range(1, 17):
        for a in range(grid.dim):
            vals += np.cos(k * meshes[a]) / k**2
    return ScalarField(grid, vals)
