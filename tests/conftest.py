import numpy as np
import pytest
from hypothesis import settings

from corrugate.grid import ImmersionField, MetricField, PeriodicGrid, ScalarField

# property tests draw the same examples on every run and keep no database
settings.register_profile("deterministic", derandomize=True, database=None,
                          max_examples=50, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def circle64():
    return PeriodicGrid((64,))


@pytest.fixture
def torus32():
    return PeriodicGrid((32, 32))


def random_scalar_field(grid, rng, max_mode=3, amp=1.0) -> ScalarField:
    """Band-limited random field: cosine/sine modes up to max_mode per axis."""
    vals = np.zeros(grid.shape)
    meshes = grid.meshes()
    if grid.dim == 1:
        for k in range(max_mode + 1):
            c, s = rng.normal(size=2) * amp / (1 + k * k)
            vals += c * np.cos(k * meshes[0]) + (s * np.sin(k * meshes[0]) if k else 0.0)
    else:
        x, y = meshes
        for kx in range(-max_mode, max_mode + 1):
            for ky in range(max_mode + 1):
                if ky == 0 and kx < 0:
                    continue
                c, s = rng.normal(size=2) * amp / (1 + kx * kx + ky * ky)
                phase = kx * x + ky * y
                vals += c * np.cos(phase)
                if kx or ky:
                    vals += s * np.sin(phase)
    return ScalarField(grid, vals)


def random_spd_metric_field(grid, rng, base=1.0, spread=0.3, max_mode=2) -> MetricField:
    """Smooth SPD tensor field: base*I plus band-limited symmetric wobble.

    ``spread`` < 1 keeps every node SPD with condition below
    (1+spread)/(1-spread).
    """
    d = grid.dim
    ncomp = d * (d + 1) // 2
    comps = np.zeros(grid.shape + (ncomp,))
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    budget = spread * base / ncomp
    for idx, (i, j) in enumerate(pairs):
        wob = random_scalar_field(grid, rng, max_mode=max_mode, amp=1.0).values
        peak = np.max(np.abs(wob)) + 1e-300
        comps[..., idx] = budget * wob / peak
        if i == j:
            comps[..., idx] += base
    return MetricField(grid, comps)


def clifford_map(grid, r=1.0) -> ImmersionField:
    """r*(cos x, sin x, cos y, sin y) on the torus."""
    x, y = grid.meshes()
    vals = np.stack([r * np.cos(x), r * np.sin(x), r * np.cos(y), r * np.sin(y)], axis=-1)
    return ImmersionField(grid, vals)


def unresolved_cover_case():
    """A valid strictly short torus stage that no bump count 1, 2 or 4 covers:
    the Clifford torus on 32^2 under g = 1.101^2 I + 0.05 cos(x+y) diag(1, -1)
    with g12 = -0.0466 sin y, at eta 0.5 and delta 0.81. Returns (w, g, delta)."""
    grid = PeriodicGrid((32, 32))
    x, y = grid.meshes()
    wobble = 0.05 * np.cos(x + y)
    comps = np.stack([1.101**2 + wobble, -0.0466 * np.sin(y), 1.101**2 - wobble], axis=-1)
    return clifford_map(grid), MetricField(grid, comps), 0.81


def unit_circle_map(grid, ambient=3) -> ImmersionField:
    """(cos x, sin x, 0, ...) on the circle."""
    (x,) = grid.meshes()
    comps = [np.cos(x), np.sin(x)] + [np.zeros_like(x)] * (ambient - 2)
    return ImmersionField(grid, np.stack(comps, axis=-1))


def flat_strip_map(grid) -> ImmersionField:
    """(x, y, 0, 0): identity chart into R^4, linear-plus-periodic lift."""
    x, y = grid.meshes()
    zeros = np.zeros_like(x)
    vals = np.stack([x, y, zeros, zeros], axis=-1)
    offsets = np.zeros((2, 4))
    offsets[0, 0] = 1.0
    offsets[1, 1] = 1.0
    return ImmersionField(grid, vals, offsets)


def primitive_count(n: int) -> int:
    """J(n) = n(n+1)/2: primitives per pointwise splitting."""
    return n * (n + 1) // 2


def reconstruct(primitives, grid) -> MetricField:
    """Sum of primitive tensors (the decomposition residual oracle)."""
    return sum((prim.tensor() for prim in primitives), MetricField.identity(grid, 0.0))


def plane_projector(frame) -> np.ndarray:
    """Nodewise orthogonal projector onto span{nu, b} of a FramePair."""
    return (np.einsum("...a,...c->...ac", frame.nu, frame.nu)
            + np.einsum("...a,...c->...ac", frame.b, frame.b))
