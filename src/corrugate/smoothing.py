"""Spectral smoothing operator family S_eps and its eps-derivative.

On a periodic chart, mollification is a Fourier multiplier: mode xi is
scaled by m(eps*|xi|) where m is 1 on [0, 1/2], 0 on [1, infinity) and a
C^4 polynomial step in between. Compact spectral support makes the
operator exact on band-limited grids and gives the derivative multiplier
|xi| * m'(eps*|xi|) vanishing flat near the origin, which is what powers
the eps-derivative estimates in the range r < s.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InputError
from .grid import ScalarField, derivative_sup, sup_norm

#: the multiplier is 1 on [0, FLAT_END] and 0 on [SUPPORT_END, infinity)
FLAT_END = 0.5
SUPPORT_END = 1.0


def _ramp(s) -> np.ndarray:
    """u = (s - FLAT_END)/(SUPPORT_END - FLAT_END) clamped to [0, 1]."""
    u = (np.asarray(s, dtype=float) - FLAT_END) / (SUPPORT_END - FLAT_END)
    return np.minimum(np.maximum(u, 0.0), 1.0)


def _m(u: np.ndarray) -> np.ndarray:
    return 1.0 - u**5 * (126.0 + u * (-420.0 + u * (540.0 + u * (-315.0 + u * 70.0))))


def _dm(u: np.ndarray) -> np.ndarray:
    return -630.0 * (u * (1.0 - u)) ** 4 / (SUPPORT_END - FLAT_END)


def multiplier(s) -> np.ndarray:
    """m(s): 1 on [0, FLAT_END], 0 on [SUPPORT_END, infinity), and in between
    one minus the order-4 smoothstep, a C^4 monotone ramp."""
    return _m(_ramp(s))


def multiplier_derivative(s) -> np.ndarray:
    """m'(s), zero outside the transition (FLAT_END, SUPPORT_END)."""
    return _dm(_ramp(s))


def multipliers(s) -> tuple[np.ndarray, np.ndarray]:
    """m(s) and m'(s) from one clamp, for a caller that needs both."""
    u = _ramp(s)
    return _m(u), _dm(u)


@functools.lru_cache(maxsize=8)
def _mode_magnitudes(shape: tuple[int, ...]) -> np.ndarray:
    """|xi| on the rfftn lattice of a grid of this shape (last axis halved).

    Cached per shape and shared by every caller, hence read-only.
    """
    freqs = [np.fft.fftfreq(r, d=1.0 / r) for r in shape[:-1]]
    freqs.append(np.fft.rfftfreq(shape[-1], d=1.0 / shape[-1]))
    mags = np.sqrt(sum(k * k for k in np.meshgrid(*freqs, indexing="ij")))
    mags.flags.writeable = False
    return mags


def _map_modes(field, eps: float, mode_fn):
    """Scale each Fourier mode xi of ``field`` by mode_fn(|xi|).

    An immersion's linear part carries no modes; it is scaled as the zero
    mode is, by mode_fn(0).
    """
    if not (0.0 < eps <= 1.0):
        raise InputError(f"smoothing scale must lie in (0, 1], got {eps}")
    grid = field.grid
    axes = tuple(range(grid.dim))
    spec = np.fft.rfftn(field.data, axes=axes)
    factors = mode_fn(_mode_magnitudes(grid.shape))
    spec *= factors.reshape(factors.shape + (1,) * (field.data.ndim - grid.dim))
    zero_mode = float(mode_fn(0.0))
    return field.from_periodic(grid, np.fft.irfftn(spec, s=grid.shape, axes=axes),
                               *(zero_mode * e for e in field._extras()))


def smooth(field, eps: float):
    """S_eps: scale mode xi by m(eps*|xi|). Linear; exact identity on fields
    whose active modes satisfy eps*|xi| <= 1/2."""
    return _map_modes(field, eps, lambda k: multiplier(eps * k))


def smooth_eps_derivative(field, eps: float):
    """S'_eps = d/d(eps) S_eps: scale mode xi by |xi| * m'(eps*|xi|)."""
    return _map_modes(field, eps, lambda k: k * multiplier_derivative(eps * k))


def estimate_bench(field, pairs, eps_grid):
    """Measured constants for the three smoothing estimate families.

    For each (r, s) pair and each eps, the measured ratio is the left-hand
    side over eps^power * ||field||_s:

      family b (r >= s):  ||D^r(S_eps T)||_0     vs eps^(s-r)
      family c (any r,s): ||D^r(S'_eps T)||_0    vs eps^(s-r-1)
      family d (s >= r):  ||D^r(T - S_eps T)||_0 vs eps^(s-r)

    Returns a list of records {family, r, s, max_ratio} (max over the eps
    grid). An eps whose power overflows, or underflows to zero, is refused.
    """
    records = []
    norms = {}

    def scale(eps, power, s):
        """eps^power * ||field||_s, refused outside the positive finite floats."""
        if s not in norms:
            norms[s] = sup_norm(field, s)
        try:
            out = eps ** power * norms[s]
        except OverflowError:
            out = math.inf
        if not 0.0 < out < math.inf:
            raise InputError(f"eps {eps!r} to the power {power} times ||T||_{s} = "
                             f"{norms[s]:.3e} leaves the float range; the ratio "
                             "would be meaningless")
        return out

    for r, s in pairs:
        ratios_b, ratios_c, ratios_d = [], [], []
        for eps in eps_grid:
            smd = smooth_eps_derivative(field, eps)
            if r >= s:
                ratios_b.append(derivative_sup(smooth(field, eps), r) / scale(eps, s - r, s))
            ratios_c.append(derivative_sup(smd, r) / scale(eps, s - r - 1, s))
            if s >= r:
                # one multiplier, so the difference is exactly 0 where S_eps is the identity
                diff = _map_modes(field, eps, lambda k: 1.0 - multiplier(eps * k))
                ratios_d.append(derivative_sup(diff, r) / scale(eps, s - r, s))
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
