"""Property tests under the deterministic hypothesis profile of conftest.py."""

import os
import tempfile

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrugate.driver import c1_cauchy_audit
from corrugate.fieldio import read_field, write_field
from corrugate.grid import MIN_RESOLUTION, ImmersionField, MetricField, PeriodicGrid, ScalarField

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
resolutions = st.sampled_from([MIN_RESOLUTION, 2 * MIN_RESOLUTION])


@st.composite
def fields(draw):
    """A scalar, metric or immersion field, with or without offsets, on a
    1-D or 2-D grid; immersions keep |samples| <= 1e12 so that adding the
    linear part stays finite."""
    grid = PeriodicGrid(tuple(draw(st.lists(resolutions, min_size=1, max_size=2))))
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
    assert np.array_equal(back.values, field.values)
    if isinstance(field, ImmersionField):
        assert np.array_equal(back.offsets, field.offsets)


@given(st.lists(st.floats(min_value=0.0, allow_infinity=False, width=64), min_size=3))
@example([1.0, 0.0, 0.0])
def test_cauchy_audit_gives_a_verdict(increments):
    ratios, passed = c1_cauchy_audit(increments)
    assert len(ratios) == len(increments) - 1
    assert not any(np.isnan(ratios))
    assert isinstance(passed, bool)
