import io

import numpy as np
import pytest

import corrugate.grid as grid_module
from corrugate.corrugation import spiral_perturbation
from corrugate.decompose import PrimitiveMetric
from corrugate.errors import AliasingError, CapabilityError, InputError
from corrugate.fieldio import read_field_block, write_field_block
from corrugate.frame import normal_pair
from corrugate.grid import (
    ImmersionField,
    MetricField,
    PeriodicGrid,
    ScalarField,
    bandwidth,
    derivative_sup,
    is_short,
    pullback_metric,
    resample,
    spectral_gradient,
    sup_norm,
    symmetric_product,
)

from conftest import clifford_map, flat_strip_map, random_scalar_field


def helix_map(grid):
    """w(x) = (x + 0.1 sin x, 0.1 cos x); pullback g11 has a closed form."""
    (x,) = grid.meshes()
    vals = np.stack([x + 0.1 * np.sin(x), 0.1 * np.cos(x)], axis=-1)
    offsets = np.array([[1.0, 0.0]])
    return ImmersionField(grid, vals, offsets)


def helix_g11(x):
    return (1 + 0.1 * np.cos(x)) ** 2 + 0.01 * np.sin(x) ** 2


class TestGridValidation:
    def test_rejects_small_resolution(self):
        with pytest.raises(InputError):
            PeriodicGrid((8,))

    def test_rejects_odd_resolution(self):
        # any even size is a grid axis; an odd one has no Nyquist mode
        assert PeriodicGrid((48, 4608)).shape == (48, 4608)
        with pytest.raises(InputError, match="resolution 25 is odd"):
            PeriodicGrid((25,))

    def test_non_integer_resolution_refused(self):
        # 16.5 is not truncated to 16; a numpy integer is a resolution
        with pytest.raises(InputError, match="resolution must be an integer, got 16.5") as err:
            PeriodicGrid((16.5,))
        assert err.value.exit_code == 2
        assert PeriodicGrid((np.int64(16),)).shape == (16,)

    def test_rejects_dim_three(self):
        with pytest.raises(InputError):
            PeriodicGrid((16, 16, 16))

    def test_grid_over_the_node_cap_refused_with_its_exact_count(self):
        # 2^64 nodes: a fixed-width product would wrap around to 0
        with pytest.raises(InputError, match=r"grid \(4294967296, 4294967296\) has "
                                             "18446744073709551616 nodes, beyond the "
                                             "desk-scale cap of 4194304 nodes"):
            PeriodicGrid((2**32, 2**32))

    def test_grid_at_the_node_cap_is_built(self):
        assert PeriodicGrid((2**11, 2**11)).num_nodes == grid_module.MAX_NODES == 2**22

    def test_node_cap_is_read_when_a_grid_is_built(self, monkeypatch):
        monkeypatch.setattr(grid_module, "MAX_NODES", 2**8)
        assert PeriodicGrid((16, 16)).num_nodes == 2**8
        with pytest.raises(InputError, match="512 nodes, beyond the desk-scale cap of 256"):
            PeriodicGrid((32, 16))


class TestPullback:
    def test_flat_strip_gives_identity(self):
        g = pullback_metric(flat_strip_map(PeriodicGrid((32, 32))))
        assert np.allclose(g.matrices(), np.eye(2), atol=1e-12)

    def test_clifford_gives_scaled_identity(self):
        g = pullback_metric(clifford_map(PeriodicGrid((32, 32)), r=0.6))
        assert np.max(np.abs(g.matrices() - 0.36 * np.eye(2))) < 1e-12

    def test_helix_matches_closed_form(self):
        grid = PeriodicGrid((256,))
        g = pullback_metric(helix_map(grid))
        expected = helix_g11(grid.axes()[0])
        assert np.max(np.abs(g.component(0, 0) - expected)) < 1e-11

    def test_nonfinite_input_rejected(self):
        grid = PeriodicGrid((16, 16))
        vals = np.zeros(grid.shape + (4,))
        vals[0, 0, 0] = np.nan
        with pytest.raises(InputError):
            ImmersionField(grid, vals)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(7)
        grid = PeriodicGrid((32, 32))
        for _ in range(5):
            comps = [random_scalar_field(grid, rng, max_mode=2, amp=0.2).values
                     for _ in range(4)]
            x, y = grid.meshes()
            vals = np.stack([np.cos(x) + comps[0], np.sin(x) + comps[1],
                             np.cos(y) + comps[2], np.sin(y) + comps[3]], axis=-1)
            g = pullback_metric(ImmersionField(grid, vals))
            mats = g.matrices()
            assert np.array_equal(mats, np.swapaxes(mats, -1, -2))
            assert np.min(g.eigenvalues_min()) > -1e-9

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_quadratic_scaling(self, c):
        rng = np.random.default_rng(11)
        grid = PeriodicGrid((32, 32))
        x, y = grid.meshes()
        vals = np.stack([np.cos(x), np.sin(x), np.cos(y),
                         np.sin(y) + 0.3 * random_scalar_field(grid, rng).values], axis=-1)
        w = ImmersionField(grid, vals)
        g1 = pullback_metric(w * c).comps
        g2 = pullback_metric(w).comps * c**2
        assert np.max(np.abs(g1 - g2)) <= 1e-12 * np.max(np.abs(g2))

    @pytest.mark.parametrize("shape, ambient", [((64,), 3), ((32, 48), 4)])
    def test_symmetric_product_polarizes_the_pullback(self, shape, ambient):
        # sym(du . dv) = (pull(u + v) - pull(u - v))/4, offsets included
        rng = np.random.default_rng(17)
        grid = PeriodicGrid(shape)
        u, v = (ImmersionField.from_periodic(
            grid, np.stack([random_scalar_field(grid, rng).values for _ in range(ambient)], -1),
            rng.normal(size=(grid.dim, ambient))) for _ in range(2))
        sym = symmetric_product(u, v).comps
        polar = (pullback_metric(u + v) - pullback_metric(u - v)).comps / 4.0
        assert np.max(np.abs(sym - polar)) <= 1e-13 * np.max(np.abs(sym))

    def test_pullback_peaks_under_8_doubles_per_node(self):
        # above the cached derivatives: the Gram's 4 entries and the 3 symmetrized
        # rows written in place (7.4); stacking a list of rows held 10.4
        import tracemalloc

        grid = PeriodicGrid((128, 128))
        x, y = grid.meshes()
        w = ImmersionField(grid, np.stack([np.cos(x), np.sin(x), np.cos(y) + 0.1 * np.sin(x + y),
                                           np.sin(y)], -1))
        w.derivatives()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            g = pullback_metric(w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert g.comps.shape == grid.shape + (3,)
        assert peak / (8 * grid.num_nodes) <= 8.0


class TestSupNorm:
    def test_constant_scalar(self):
        grid = PeriodicGrid((16,))
        assert sup_norm(ScalarField.constant(grid, -2.5), 0) == pytest.approx(2.5)

    def test_single_mode_order_one(self):
        grid = PeriodicGrid((64,))
        (x,) = grid.meshes()
        f = ScalarField(grid, np.cos(3 * x))
        assert sup_norm(f, 1) == pytest.approx(4.0, abs=1e-12)

    def test_helix_metric_against_finite_differences(self):
        grid = PeriodicGrid((256,))
        g = pullback_metric(helix_map(grid))
        measured = sup_norm(g, 2)

        # oracle: 4th-order centered differences on a 4x finer sampling of
        # the closed form, sups taken on the coarse node subset
        fine = PeriodicGrid((1024,))
        xf = fine.axes()[0]
        h = 2 * np.pi / 1024
        f = helix_g11(xf)
        d1 = (-np.roll(f, -2) + 8 * np.roll(f, -1) - 8 * np.roll(f, 1) + np.roll(f, 2)) / (12 * h)
        d2 = (-np.roll(f, -2) + 16 * np.roll(f, -1) - 30 * f + 16 * np.roll(f, 1)
              - np.roll(f, 2)) / (12 * h * h)
        expected = (np.max(np.abs(f[::4])) + np.max(np.abs(d1[::4]))
                    + np.max(np.abs(d2[::4])))
        assert measured == pytest.approx(expected, abs=1e-6)

    def test_flat_strip_offsets_enter_first_derivative_only(self):
        w = flat_strip_map(PeriodicGrid((64, 64)))
        assert derivative_sup(w, 1) == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert derivative_sup(w, 2) == pytest.approx(0.0, abs=1e-12)

    def test_helix_first_derivative_matches_derivatives(self):
        w = helix_map(PeriodicGrid((256,)))
        der = w.derivatives()
        expected = np.max(np.sqrt(np.sum(der * der, axis=(-2, -1))))
        assert derivative_sup(w, 1) == pytest.approx(expected, abs=1e-12)

    def test_order_cap(self):
        grid = PeriodicGrid((16,))
        with pytest.raises(CapabilityError):
            sup_norm(ScalarField.constant(grid, 1.0), 5)

    def test_negative_order_refused_as_input(self):
        f = ScalarField.constant(PeriodicGrid((16,)), 1.0)
        with pytest.raises(InputError, match="derivative order -1 is negative") as refused:
            sup_norm(f, -1)
        assert refused.value.exit_code == 2

    @pytest.mark.parametrize("order", [2.5, 2.0, float("nan")])
    def test_non_integer_order_refused(self, order):
        f = ScalarField.constant(PeriodicGrid((16,)), 1.0)
        with pytest.raises(InputError, match="derivative order must be an integer"):
            sup_norm(f, order)
        assert sup_norm(f, np.int32(2)) == 1.0


class TestIsShort:
    def test_half_clifford_strictly_short(self):
        grid = PeriodicGrid((32, 32))
        w = clifford_map(grid, r=1.0) * 0.5
        flag, margin = is_short(w, MetricField.identity(grid), strict=True)
        assert flag
        assert margin == pytest.approx(0.75, abs=1e-12)

    def test_exact_isometry_margin_zero(self):
        grid = PeriodicGrid((32, 32))
        w = clifford_map(grid, r=1.0)
        flag, margin = is_short(w, pullback_metric(w))
        assert flag
        assert abs(margin) <= 1e-9
        strict_flag, _ = is_short(w, pullback_metric(w), strict=True)
        assert not strict_flag

    def test_long_map_not_short(self):
        grid = PeriodicGrid((32, 32))
        w = clifford_map(grid, r=0.9)
        flag, margin = is_short(w, MetricField.identity(grid, 0.64))
        assert not flag
        assert margin == pytest.approx(0.64 - 0.81, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        w = clifford_map(PeriodicGrid((32, 32)))
        g = MetricField.identity(PeriodicGrid((16, 16)))
        with pytest.raises(InputError):
            is_short(w, g)


class TestResample:
    def test_single_mode_exact(self):
        grid = PeriodicGrid((32,))
        (x,) = grid.meshes()
        f = ScalarField(grid, np.cos(2 * x))
        up = resample(f, PeriodicGrid((64,)))
        expected = np.cos(2 * PeriodicGrid((64,)).axes()[0])
        assert np.max(np.abs(up.values - expected)) <= 1e-12

    def test_constant_any_resolution(self):
        f = ScalarField.constant(PeriodicGrid((16,)), 3.25)
        up = resample(f, PeriodicGrid((128,)))
        assert np.max(np.abs(up.values - 3.25)) <= 1e-12

    def test_round_trip_on_original_nodes(self):
        rng = np.random.default_rng(3)
        grid = PeriodicGrid((32, 32))
        f = random_scalar_field(grid, rng, max_mode=5)
        up = resample(f, PeriodicGrid((64, 64)))
        assert np.max(np.abs(up.values[::2, ::2] - f.values)) <= 1e-12

    @pytest.mark.parametrize("coarse, fine", [
        ((64,), (4608,)), ((48,), (144,)), ((48, 64), (144, 320))])
    def test_five_smooth_multiples_keep_the_input_nodes(self, coarse, fine):
        # every mode of the coarse grid, its Nyquist mode too
        f = ScalarField(PeriodicGrid(coarse), np.random.default_rng(4).normal(size=coarse))
        up = resample(f, PeriodicGrid(fine))
        nodes = tuple(slice(None, None, n // m) for n, m in zip(fine, coarse))
        assert np.max(np.abs(up.values[nodes] - f.values)) <= 1e-12
        assert np.max(np.abs(resample(up, f.grid).values - f.values)) <= 1e-12

    def test_downsample_aliasing_error(self):
        grid = PeriodicGrid((64,))
        (x,) = grid.meshes()
        f = ScalarField(grid, np.cos(20 * x))
        with pytest.raises(AliasingError):
            resample(f, PeriodicGrid((32,)))

    def test_downsample_refuses_content_above_the_new_nyquist_only(self):
        grid = PeriodicGrid((64,))
        small = PeriodicGrid((32,))
        (x,) = grid.meshes()
        nyquist = ScalarField(grid, np.cos(16 * x))
        assert np.allclose(resample(nyquist, small).values, (-1.0) ** np.arange(32))
        tail = ScalarField(grid, 1.0 + 1e-12 * np.cos(17 * x))
        assert np.allclose(resample(tail, small).values, 1.0)
        assert np.array_equal(resample(ScalarField.constant(grid, 0.0), small).values,
                              np.zeros(32))
        with pytest.raises(AliasingError, match="above mode 16"):
            resample(ScalarField(grid, np.cos(17 * x)), small)

    def test_downsample_band_limited_sup_never_grows(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_scalar_field(PeriodicGrid((128,)), rng, max_mode=6)
            down = resample(f, PeriodicGrid((32,)))
            assert sup_norm(down, 0) <= sup_norm(f, 0) + 1e-9
            back = resample(down, PeriodicGrid((128,)))
            assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_immersion_offsets_survive(self):
        grid = PeriodicGrid((32, 32))
        w = flat_strip_map(grid)
        up = resample(w, PeriodicGrid((64, 64)))
        assert np.allclose(pullback_metric(up).matrices(), np.eye(2), atol=1e-12)


def wobbled_torus_map():
    """The Clifford torus in R^4 on a non-square grid, each component moved by
    its own smooth wobble; periodic, offsets zero."""
    grid = PeriodicGrid((32, 48))
    x, y = grid.meshes()
    wobble = np.stack([np.sin(x + a * y) * np.cos(a * x) for a in range(4)], axis=-1)
    return ImmersionField(grid, clifford_map(grid).values + 0.05 * wobble)


def sloped_circle_map():
    """(x + 0.2 sin x, 0.5 x + 0.3 cos x, 0.1 sin 2x) in R^3: two nonzero offsets."""
    grid = PeriodicGrid((64,))
    (x,) = grid.meshes()
    vals = np.stack([x + 0.2 * np.sin(x), 0.5 * x + 0.3 * np.cos(x), 0.1 * np.sin(2 * x)], -1)
    return ImmersionField(grid, vals, np.array([[1.0, 0.5, 0.0]]))


def component_major(data) -> bool:
    """Each component of grid-first ``data`` is one contiguous node array."""
    return all(data[..., a].flags.c_contiguous for a in range(data.shape[-1]))


@pytest.mark.parametrize("make_map", [wobbled_torus_map, sloped_circle_map],
                         ids=["torus", "circle-with-offsets"])
class TestComponentMajorLayout:
    """An immersion's nodes are stored one component at a time, while its
    arrays are indexed grid axes first."""

    def test_derivatives_equal_the_spectral_gradient_bit_for_bit(self, make_map):
        w = make_map()
        first = spectral_gradient(w.data, w.grid) + w.offsets
        assert w.derivatives().shape == w.grid.shape + w.offsets.shape
        assert np.array_equal(w.derivatives(), first)
        assert np.array_equal(w.second_derivatives(), spectral_gradient(first, w.grid))

    def test_each_component_is_one_contiguous_node_array(self, make_map):
        w = make_map()
        assert component_major(w.data)
        dw = w.derivatives()
        assert all(component_major(dw[..., i, :]) for i in range(w.grid.dim))
        hess = w.second_derivatives()
        assert all(component_major(hess[..., i, j, :])
                   for i in range(w.grid.dim) for j in range(w.grid.dim))

    def test_derivative_cache_stays_read_only(self, make_map):
        w = make_map()
        dw = w.derivatives()
        assert w.derivatives() is dw
        assert not dw.flags.writeable
        with pytest.raises(ValueError):
            dw[..., 0, 0] = 0.0

    def test_arithmetic_spirals_and_resampling_keep_the_layout(self, make_map):
        w = make_map()
        grid = w.grid
        prim = PrimitiveMetric(ScalarField.constant(grid, 0.1), np.eye(grid.dim)[0])
        wp = spiral_perturbation(w, prim, normal_pair(w), 4.0)
        fine = PeriodicGrid(tuple(2 * r for r in grid.shape))
        for field in (wp, w + wp, w - wp, 0.5 * w, resample(w, fine), resample(w + wp, fine)):
            assert component_major(field.data)
            assert all(component_major(field.derivatives()[..., i, :]) for i in range(grid.dim))


class TestNormInequalities:
    def test_leibniz_bound(self):
        rng = np.random.default_rng(17)
        grid = PeriodicGrid((128,))
        for _ in range(10):
            phi = random_scalar_field(grid, rng, max_mode=4)
            psi = random_scalar_field(grid, rng, max_mode=4)
            prod = ScalarField(grid, phi.values * psi.values)
            for r in range(1, 5):
                c = 2.0**r * (r + 1)
                bound = c * (sup_norm(phi, 0) * sup_norm(psi, r)
                             + sup_norm(phi, r) * sup_norm(psi, 0))
                assert sup_norm(prod, r) <= bound

    def test_interpolation_bound(self):
        rng = np.random.default_rng(23)
        grid = PeriodicGrid((128,))
        for _ in range(100):
            f = random_scalar_field(grid, rng, max_mode=8)
            lhs = sup_norm(f, 1)
            rhs = 4.0 * np.sqrt(sup_norm(f, 0) * sup_norm(f, 2))
            assert lhs <= rhs


class TestSerialization:
    def round_trip(self, field):
        buf = io.StringIO()
        write_field_block(field, buf)
        return read_field_block(buf.getvalue().splitlines(), 0)[0]

    def test_scalar_round_trip(self):
        rng = np.random.default_rng(2)
        f = random_scalar_field(PeriodicGrid((32,)), rng)
        back = self.round_trip(f)
        assert np.array_equal(back.values, f.values)

    def test_metric_round_trip(self):
        grid = PeriodicGrid((16, 16))
        g = pullback_metric(clifford_map(grid, r=0.77))
        back = self.round_trip(g)
        assert np.array_equal(back.comps, g.comps)

    def test_immersion_round_trip_with_offsets(self):
        w = helix_map(PeriodicGrid((64,)))
        back = self.round_trip(w)
        assert np.array_equal(back.periodic, w.periodic)
        assert np.array_equal(back.offsets, w.offsets)


class TestBandwidth:
    def test_zero_field_has_bandwidth_zero(self):
        # the flat strip's periodic part is all zero
        w = flat_strip_map(PeriodicGrid((32, 16)))
        assert [bandwidth(w.data, a) for a in range(2)] == [0, 0]
