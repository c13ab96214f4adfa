"""Property tests under the deterministic hypothesis profile of conftest.py."""

import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrugate.decompose import GRAD_TOL, PrimitiveMetric
from corrugate.driver import c1_cauchy_audit
from corrugate.errors import InputError
from corrugate.fieldio import (
    read_field,
    read_primitives,
    write_field,
    write_field_block,
    write_primitives,
)
from corrugate.grid import MIN_RESOLUTION, ImmersionField, MetricField, PeriodicGrid, ScalarField

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
nonnegative = st.floats(min_value=0.0, allow_infinity=False, width=64)
resolutions = st.sampled_from([MIN_RESOLUTION, 2 * MIN_RESOLUTION])
grids = st.lists(resolutions, min_size=1, max_size=2).map(lambda shape: PeriodicGrid(tuple(shape)))


@st.composite
def fields(draw):
    """A scalar, metric or immersion field, with or without offsets, on a
    1-D or 2-D grid; immersions keep |samples| <= 1e12 so that adding the
    linear part stays finite."""
    grid = draw(grids)
    kind = draw(st.sampled_from([ScalarField, MetricField, ImmersionField]))
    if kind is ScalarField:
        return ScalarField(grid, draw(arrays(float, grid.shape, elements=finite)))
    if kind is MetricField:
        ncomp = grid.dim * (grid.dim + 1) // 2
        return MetricField(grid, draw(arrays(float, grid.shape + (ncomp,), elements=finite)))
    ambient = draw(st.integers(grid.dim, 4))
    bounded = st.floats(-1e12, 1e12, width=64)
    data = draw(arrays(float, grid.shape + (ambient,), elements=bounded))
    offsets = draw(st.one_of(st.just(np.zeros((grid.dim, ambient))),
                             arrays(float, (grid.dim, ambient), elements=bounded)))
    return ImmersionField.from_periodic(grid, data, offsets)


@given(fields())
def test_field_file_round_trip_is_bit_exact(field):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.csv")
        write_field(field, path)
        back = read_field(path)
    assert type(back) is type(field)
    assert back.grid == field.grid
    assert np.array_equal(back.data, field.data)
    assert np.array_equal(back.values, field.values)
    if isinstance(field, ImmersionField):
        assert np.array_equal(back.offsets, field.offsets)


@st.composite
def primitive_lists(draw):
    """One to three primitives on one 1-D or 2-D grid; psi_linear is drawn
    with entries 1e-6 <= |v| <= 1e6, so that any amplitude is allowed."""
    grid = draw(grids)
    away = st.floats(-1e6, 1e6).filter(lambda v: abs(v) >= 1e-6)
    return [PrimitiveMetric(
        amplitude=ScalarField(grid, draw(arrays(float, grid.shape, elements=nonnegative))),
        psi_linear=draw(arrays(float, (grid.dim,), elements=away)),
        support_id=draw(st.integers(0, 2**31)),
    ) for _ in range(draw(st.integers(1, 3)))]


def _written(prims, tmp) -> str:
    path = os.path.join(tmp, "prims.csv")
    write_primitives(prims, path)
    return path


@given(primitive_lists())
def test_primitive_file_round_trip_is_bit_exact(prims):
    with tempfile.TemporaryDirectory() as tmp:
        back = read_primitives(_written(prims, tmp))
    assert len(back) == len(prims)
    for got, want in zip(back, prims):
        assert got.grid == want.grid
        assert np.array_equal(got.amplitude.data, want.amplitude.data)
        assert np.array_equal(got.psi_linear, want.psi_linear)
        assert got.support_id == want.support_id


@given(primitive_lists())
def test_primitive_file_with_a_phase_block_is_refused(prims):
    """The layout that followed each amplitude block with a periodic phase block."""
    grid = prims[0].grid
    phase = io.StringIO()
    write_field_block(ScalarField.constant(grid, 0.0), phase)
    per_primitive = 2 + grid.num_nodes  # manifest, block header, one row per node
    with tempfile.TemporaryDirectory() as tmp:
        path = _written(prims, tmp)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            for first in range(0, len(lines), per_primitive):
                fh.writelines(lines[first:first + per_primitive] + [phase.getvalue()])
        with pytest.raises(InputError) as err:
            read_primitives(path)
    assert repr(phase.getvalue().splitlines()[0]) in str(err.value)


@st.composite
def primitives_without_dpsi(draw):
    """A nonzero amplitude with |psi_linear| <= GRAD_TOL."""
    grid = draw(grids)
    amp = draw(arrays(float, grid.shape, elements=nonnegative).filter(lambda a: np.any(a > 0)))
    small = st.floats(-GRAD_TOL / 2, GRAD_TOL / 2)
    return ScalarField(grid, amp), draw(arrays(float, (grid.dim,), elements=small))


@given(primitives_without_dpsi())
def test_primitive_without_dpsi_cannot_be_built(case):
    amplitude, psi_linear = case
    with pytest.raises(InputError, match="dpsi vanishes"):
        PrimitiveMetric(amplitude=amplitude, psi_linear=psi_linear)


@given(st.lists(st.floats(min_value=0.0, allow_infinity=False, width=64), min_size=3))
@example([1.0, 0.0, 0.0])
def test_cauchy_audit_gives_a_verdict(increments):
    ratios, passed = c1_cauchy_audit(increments)
    assert len(ratios) == len(increments) - 1
    assert not any(np.isnan(ratios))
    assert isinstance(passed, bool)
