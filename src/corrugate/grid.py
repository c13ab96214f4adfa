"""Periodic-grid fields with spectral calculus.

Charts are single periodic boxes [0, 2pi)^d with d in {1, 2} (circle and
square torus). Every field is a ``Field``: an array ``data`` with the grid
axes first and the component axes after them, validated and combined by
the base; resampling, smoothing and the C^k norms act on ``data`` alike.
That order is the indexing only: an immersion's memory is component-major
(see ``ImmersionField``), a layout numpy's FFTs and ufuncs keep.
A kind supplies its component shape:

  ScalarField      one real value per node
  MetricField      symmetric (0,2) tensor per node, stored triangular
  ImmersionField   map into R^N per node, lift = linear part + periodic part

Differentiation is DFT-based, hence exact (to rounding) for band-limited
fields. Every derivative iterates one rule, ik per mode with the Nyquist
mode zeroed (``derivative_multipliers``, which the flow reads too), so D^2
is the gradient of the gradient wherever it is read.
Maps whose lift is linear-plus-periodic (e.g. x -> (x, 0, ...)) carry
per-axis ``offsets``: ``data`` holds the periodic part only, and every
first derivative adds the constant linear slope back in.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, CapabilityError, InputError

TWO_PI = 2.0 * np.pi

#: |margin| below this counts as zero when deciding (strict) shortness
SHORT_TOL = 1e-9

#: sup-norm derivative orders supported (all orders the estimates use)
MAX_DERIVATIVE_ORDER = 4

#: a pullback-metric eigenvalue at or below this is not an immersion
RANK_TOL = 1e-10

#: downsampling refuses a dropped mode above this, relative to the largest mode
ALIAS_TOL = 1e-10

#: fewest nodes per grid axis
MIN_RESOLUTION = 16

#: desk-scale cap on the nodes of any grid, read when each grid is built
MAX_NODES = 2**22


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid over [0, 2pi)^d, d = 1 or 2.

    Resolutions are even (each axis has a Nyquist mode, which resampling
    splits or folds) and at least MIN_RESOLUTION per axis; a grid over
    MAX_NODES nodes is refused before any of its arrays exists.
    """

    shape: tuple[int, ...]

    def __post_init__(self):
        shape = tuple(_integer(r, "resolution") for r in self.shape)
        object.__setattr__(self, "shape", shape)
        if len(shape) not in (1, 2):
            raise InputError(f"grid dimension must be 1 or 2, got {len(shape)}")
        for r in shape:
            if r < MIN_RESOLUTION:
                raise InputError(f"resolution {r} below minimum {MIN_RESOLUTION}")
            if r % 2:
                raise InputError(f"resolution {r} is odd; a grid axis needs an even size")
        if self.num_nodes > MAX_NODES:
            raise InputError(f"grid {shape} has {self.num_nodes} nodes, beyond the "
                             f"desk-scale cap of {MAX_NODES} nodes")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def num_nodes(self) -> int:
        return math.prod(self.shape)

    def axes(self) -> list[np.ndarray]:
        """Per-axis node coordinates, 2pi*i/res."""
        return [TWO_PI * np.arange(r) / r for r in self.shape]

    def meshes(self) -> list[np.ndarray]:
        """Full coordinate arrays of shape ``self.shape`` (indexing 'ij')."""
        return list(np.meshgrid(*self.axes(), indexing="ij"))


def _check_finite(values, what: str):
    if not np.all(np.isfinite(values)):
        raise InputError(f"non-finite values in {what}")


def _integer(value, what: str) -> int:
    """``value`` as an int, numpy integers included; anything else is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None


@functools.lru_cache(maxsize=16)
def derivative_multipliers(n: int, orders: int) -> np.ndarray:
    """(ik)^1 .. (ik)^orders per rfft mode k = 0..n/2 of n nodes, shape
    (orders, n/2 + 1). The Nyquist mode is zeroed: the grid cannot
    represent its derivative. Cached, hence read-only."""
    ik = 1j * np.arange(n // 2 + 1, dtype=float)
    ik[-1] = 0.0
    out = np.cumprod(np.broadcast_to(ik, (orders, len(ik))), axis=0)
    out.flags.writeable = False
    return out


def spectral_derivative(values: np.ndarray, grid: PeriodicGrid, axis: int) -> np.ndarray:
    """Spectral d/dx_axis of node samples, periodic in each axis.

    ``values`` may carry trailing component axes; grid axes come first, or
    last with a negative ``axis``.
    """
    res = grid.shape[axis]
    spec = np.fft.rfft(values, axis=axis)
    mult = derivative_multipliers(res, 1)[0]
    shape = [1] * spec.ndim
    shape[axis] = len(mult)
    spec *= mult.reshape(shape)
    return np.fft.irfft(spec, n=res, axis=axis)


def spectral_gradient(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """All first partials of node samples, stacked on a new axis after the grid axes."""
    return np.stack([spectral_derivative(values, grid, a) for a in range(grid.dim)], grid.dim)


def _gradient_last(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """All first partials of node samples whose grid axes come last, stacked
    on a new first axis."""
    return np.stack([spectral_derivative(values, grid, a - grid.dim) for a in range(grid.dim)])


def _roll_axes(values: np.ndarray, k: int) -> np.ndarray:
    """A view with the last k axes moved to the front, or with k < 0 the first -k to the back."""
    axes = tuple(range(values.ndim))
    return values.transpose(axes[-k:] + axes[:-k])


def _require_same_grid(a, b):
    if a.grid.shape != b.grid.shape:
        raise InputError(f"grid mismatch: {a.grid.shape} vs {b.grid.shape}")


class Field:
    """Samples on a periodic grid: ``data`` is indexed with the grid axes
    first and the kind's component axes after them, whatever its memory order.

    The stored samples are periodic; a kind whose lift has a linear part
    keeps it in extra parts (see ``_extras``) that arithmetic combines and
    resampling or smoothing carry over unchanged.
    """

    kind = "field"

    @classmethod
    def component_shape(cls, grid: PeriodicGrid, given: tuple) -> tuple:
        """Trailing shape of ``data``, given the trailing axes supplied."""
        return ()

    def __init__(self, grid: PeriodicGrid, data):
        data = np.asarray(data, dtype=float)
        expected = grid.shape + self.component_shape(grid, data.shape[grid.dim:])
        if data.shape != expected:
            raise InputError(f"{self.kind} data shape {data.shape} != {expected}")
        _check_finite(data, f"{self.kind} field")
        self.grid = grid
        self.data = data

    @classmethod
    def from_periodic(cls, grid: PeriodicGrid, data) -> "Field":
        return cls(grid, data)

    @property
    def values(self) -> np.ndarray:
        """Node samples of the field's lift, grid axes first."""
        return self.data

    def _extras(self) -> tuple:
        """Parts besides ``data`` that ``from_periodic`` takes."""
        return ()

    def _norm_terms(self):
        """What the C^k norms run over: the D^0 samples, the periodic samples
        whose derivatives give D^k for k >= 1, and a constant added to D^1."""
        return self.data, self.data, 0.0

    def with_data(self, grid: PeriodicGrid, data) -> "Field":
        """Same kind on ``grid`` from new periodic samples; extras carried over."""
        return self.from_periodic(grid, data, *self._extras())

    def _combine(self, other, op):
        if type(other) is not type(self) or other.data.shape != self.data.shape:
            raise InputError(f"cannot combine {self.kind} data {self.data.shape} "
                             f"with {other.kind} data {other.data.shape}")
        return self.from_periodic(self.grid, op(self.data, other.data),
                                  *map(op, self._extras(), other._extras()))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, c: float):
        c = float(c)
        return self.from_periodic(self.grid, self.data * c, *(e * c for e in self._extras()))

    __rmul__ = __mul__


class ScalarField(Field):
    """Real scalar samples on a periodic grid."""

    kind = "scalar"

    @classmethod
    def constant(cls, grid: PeriodicGrid, c: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(c)))

    def derivative(self, axis: int) -> "ScalarField":
        return ScalarField(self.grid, spectral_derivative(self.data, self.grid, axis))


def triangular_index_pairs(dim: int) -> list[tuple[int, int]]:
    """Component order of stored metric entries: (0,0),(0,1),(1,1) for d=2."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


class MetricField(Field):
    """Symmetric (0,2) tensor samples, stored as upper-triangular components."""

    kind = "metric"

    @classmethod
    def component_shape(cls, grid: PeriodicGrid, given: tuple) -> tuple:
        return (grid.dim * (grid.dim + 1) // 2,)

    @property
    def comps(self) -> np.ndarray:
        return self.data

    def _norm_terms(self):
        # norms run over the full matrices, so off-diagonal entries count twice
        mats = self.matrices()
        return mats, mats, 0.0

    @classmethod
    def from_matrices(cls, grid: PeriodicGrid, mats) -> "MetricField":
        mats = np.asarray(mats, dtype=float)
        pairs = triangular_index_pairs(grid.dim)
        comps = np.stack([(mats[..., i, j] + mats[..., j, i]) / 2.0 for i, j in pairs], axis=-1)
        return cls(grid, comps)

    @classmethod
    def constant_matrix(cls, grid: PeriodicGrid, mat) -> "MetricField":
        mat = np.asarray(mat, dtype=float)
        mats = np.broadcast_to(mat, grid.shape + mat.shape)
        return cls.from_matrices(grid, mats)

    @classmethod
    def identity(cls, grid: PeriodicGrid, scale: float = 1.0) -> "MetricField":
        return cls.constant_matrix(grid, float(scale) * np.eye(grid.dim))

    def matrices(self) -> np.ndarray:
        """Dense symmetric matrices, shape grid.shape + (d, d)."""
        d = self.grid.dim
        mats = np.empty(self.grid.shape + (d, d))
        for idx, (i, j) in enumerate(triangular_index_pairs(d)):
            mats[..., i, j] = self.comps[..., idx]
            mats[..., j, i] = self.comps[..., idx]
        return mats

    def component(self, i: int, j: int) -> np.ndarray:
        if i > j:
            i, j = j, i
        idx = triangular_index_pairs(self.grid.dim).index((i, j))
        return self.comps[..., idx]

    def eigenvalues_min(self) -> np.ndarray:
        """Nodewise smallest eigenvalue (closed form for d <= 2)."""
        if self.grid.dim == 1:
            return self.comps[..., 0]
        a = self.comps[..., 0]
        b = self.comps[..., 1]
        c = self.comps[..., 2]
        half_tr = (a + c) / 2.0
        rad = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
        return half_tr - rad


class ImmersionField(Field):
    """Map chart -> R^N sampled on the grid.

    The lift is ``values = linear + periodic`` with linear part
    x -> offsets^T x; ``offsets`` has shape (dim, N) and is zero for
    genuinely periodic maps. Only the periodic part is stored, as ``data``,
    over an (N,) + grid buffer: each ``data[..., a]`` is one contiguous node
    array, and so is each [..., i, a] of the derivative cache.
    """

    kind = "immersion"

    def __init__(self, grid: PeriodicGrid, values, offsets=None, *, _periodic=False):
        super().__init__(grid, values)
        ambient = self.ambient_dim
        if offsets is None:
            offsets = np.zeros((grid.dim, ambient))
        offsets = np.asarray(offsets, dtype=float)
        if offsets.shape != (grid.dim, ambient):
            raise InputError(f"offsets shape {offsets.shape} != {(grid.dim, ambient)}")
        _check_finite(offsets, "immersion offsets")
        if not _periodic:
            self.data = self.data - self._linear_part(grid, offsets)
        # component-major; copied only if it is not so already
        self.data = _roll_axes(np.ascontiguousarray(_roll_axes(self.data, 1)), -1)
        self.offsets = offsets
        self._first = None

    @classmethod
    def component_shape(cls, grid: PeriodicGrid, given: tuple) -> tuple:
        if len(given) != 1:
            raise InputError("immersion values need one trailing component axis")
        if given[0] < grid.dim:
            raise InputError(f"ambient dimension {given[0]} below chart dimension {grid.dim}")
        return given

    @staticmethod
    def _linear_part(grid: PeriodicGrid, offsets) -> np.ndarray:
        meshes = grid.meshes()
        out = np.zeros(grid.shape + (offsets.shape[1],))
        for a in range(grid.dim):
            out += meshes[a][..., None] * offsets[a]
        return out

    @classmethod
    def from_periodic(cls, grid, periodic, offsets=None) -> "ImmersionField":
        return cls(grid, periodic, offsets, _periodic=True)

    def _extras(self) -> tuple:
        return (self.offsets,)

    def _norm_terms(self):
        return self.values, self.data, self.offsets

    @property
    def periodic(self) -> np.ndarray:
        return self.data

    @property
    def ambient_dim(self) -> int:
        return self.data.shape[-1]

    @property
    def values(self) -> np.ndarray:
        """Lift samples at nodes (linear part + periodic part)."""
        return self.data + self._linear_part(self.grid, self.offsets)

    def derivatives(self) -> np.ndarray:
        """First derivatives, shape grid.shape + (dim, N), over a (dim, N) +
        grid buffer.

        Cached (fields are treated as immutable); returned read-only.
        """
        if self._first is None:
            der = _roll_axes(_gradient_last(_roll_axes(self.data, 1), self.grid), -2)
            der += self.offsets
            der.flags.writeable = False
            self._first = der
        return self._first

    def second_derivatives(self) -> np.ndarray:
        """Second derivatives, shape grid.shape + (dim, dim, N): entry
        [..., i, j, :] is d_i d_j w, the cached first derivatives
        differentiated once more."""
        return _roll_axes(_gradient_last(_roll_axes(self.derivatives(), 2), self.grid), -3)

    def require_immersion(self):
        """Refuse a map whose pullback metric has an eigenvalue <= RANK_TOL."""
        if float(np.min(pullback_metric(self).eigenvalues_min())) <= RANK_TOL:
            raise InputError("differential drops rank: not an immersion at this tolerance")


# ---------------------------------------------------------------------------
# operations


def _component_products(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Nodewise A B^T of component-major stacks, (i, N) + nodes and
    (j, N) + nodes to (i, j) + nodes, summed across the component rows."""
    return np.einsum("ia...,ja...->ij...", A, B)


def symmetric_product(u: ImmersionField, v: ImmersionField) -> MetricField:
    """du (.) dv: the symmetric (0,2) tensor (d_i u . d_j v + d_j u . d_i v)/2."""
    _require_same_grid(u, v)
    gram = _component_products(_roll_axes(u.derivatives(), 2), _roll_axes(v.derivatives(), 2))
    pairs = triangular_index_pairs(u.grid.dim)
    comps = np.empty(u.grid.shape + (len(pairs),))
    for c, (i, j) in enumerate(pairs):
        np.add(gram[i, j], gram[j, i], out=comps[..., c])
    comps *= 0.5
    return MetricField(u.grid, comps)


def pullback_metric(w: ImmersionField) -> MetricField:
    """Induced metric with entries d_i w . d_j w (spectral derivatives)."""
    return symmetric_product(w, w)


def derivative_sups(field, k: int) -> list[float]:
    """Nodewise-sup Frobenius norms of D^0 .. D^k.

    D^i is the full i-th derivative tensor (all d^i mixed partials); the
    Frobenius norm runs over every component and derivative slot. An
    immersion's D^0 is taken of its lift and its D^1 includes the linear
    offsets; higher derivatives see the periodic part alone.
    """
    if _integer(k, "derivative order") < 0:
        raise InputError(f"derivative order {k} is negative")
    if k > MAX_DERIVATIVE_ORDER:
        raise CapabilityError(f"derivative order {k} unsupported (max {MAX_DERIVATIVE_ORDER})")
    grid = field.grid
    lift, current, slope = field._norm_terms()

    def node_sup(arr):
        comp_axes = tuple(range(grid.dim, arr.ndim))
        return float(np.max(np.sqrt(np.sum(arr * arr, axis=comp_axes))))

    sups = [node_sup(lift)]
    for order in range(1, k + 1):
        current = spectral_gradient(current, grid)
        sups.append(node_sup(current + slope if order == 1 else current))
    return sups


def sup_norm(field, k: int = 0) -> float:
    """C^k norm: sum over i <= k of the nodewise-sup Frobenius norm of D^i."""
    return float(sum(derivative_sups(field, k)))


def derivative_sup(field, k: int) -> float:
    """Sup Frobenius norm of the k-th derivative tensor alone."""
    return derivative_sups(field, k)[k]


def is_short(w: ImmersionField, g: MetricField, strict: bool = False) -> tuple[bool, float]:
    """Shortness test: min eigenvalue of g - w#e over nodes.

    Returns (flag, margin). Non-strict passes when margin >= -SHORT_TOL,
    strict demands margin > SHORT_TOL.
    """
    _require_same_grid(w, g)
    gap = g - pullback_metric(w)
    margin = float(np.min(gap.eigenvalues_min()))
    if strict:
        return margin > SHORT_TOL, margin
    return margin >= -SHORT_TOL, margin


def bandwidth(values: np.ndarray, axis: int) -> int:
    """Highest wavenumber along ``axis`` of node samples, reading every mode
    under ALIAS_TOL of the largest as zero; 0 for an all-zero field."""
    modes = np.moveaxis(np.abs(np.fft.rfft(values, axis=axis)), axis, 0)
    mags = np.max(modes.reshape(len(modes), -1), axis=1)
    return int(np.max(np.flatnonzero(mags > ALIAS_TOL * np.max(mags)), initial=0))


def _resample_axis(values: np.ndarray, axis: int, new: int) -> np.ndarray:
    """Exact spectral resampling of real samples along one axis.

    Upsampling splits the old Nyquist mode evenly between the new +/- old/2
    modes. Downsampling folds the new Nyquist pair into 2 Re and refuses to
    discard content above it (a bandwidth above new/2).
    """
    old = values.shape[axis]
    spec = np.fft.rfft(values, axis=axis)
    modes = np.moveaxis(spec, axis, 0)
    half = min(old, new) // 2
    if new < old:
        if bandwidth(values, axis) > half:
            raise AliasingError(
                f"downsampling to {new} discards spectral content above mode {half}")
        modes[half] = 2.0 * modes[half].real
    else:
        modes[half] *= 0.5
    spec *= new / old
    return np.fft.irfft(spec, n=new, axis=axis)


def resample(field, new_grid: PeriodicGrid):
    """Spectral interpolation onto ``new_grid`` (same type returned).

    Any even resolution per axis; a coarser one is refused when the field's
    bandwidth reaches past its Nyquist mode. Only dimension changes are
    ruled out. Lifting to a multiple of the old resolution keeps the
    values at the old nodes.
    """
    old_grid = field.grid
    if new_grid.dim != old_grid.dim:
        raise InputError("resample cannot change chart dimension")
    if new_grid.shape == old_grid.shape:
        return field
    data = field.data
    for a, (old, new) in enumerate(zip(old_grid.shape, new_grid.shape)):
        if new != old:
            data = _resample_axis(data, a, new)
    return field.with_data(new_grid, data)

