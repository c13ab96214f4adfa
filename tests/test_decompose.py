import numpy as np
import pytest

from corrugate.decompose import (
    PrimitiveMetric,
    active_count,
    congruence_match,
    global_decompose,
    overlap_bound,
    pointwise_decompose,
    rank_one_basis,
)
from corrugate.errors import CoverageError, InputError
from corrugate.grid import MetricField, PeriodicGrid, ScalarField

from conftest import primitive_count, random_spd_metric_field, reconstruct


def random_spd_matrix(rng, n=2, max_condition=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lo = rng.uniform(0.2, 2.0)
    vals = np.linspace(lo, lo * rng.uniform(1.0, max_condition), n)
    return q @ np.diag(vals) @ q.T


class TestRankOneBasis:
    def test_n1(self):
        basis = rank_one_basis(1)
        assert basis.vectors.shape == (1, 1)
        assert basis.vectors[0, 0] == pytest.approx(1.0)
        m = np.array([[3.5]])
        assert basis.coefficients(m)[0] == pytest.approx(3.5)

    def test_n2_count(self):
        assert rank_one_basis(2).vectors.shape[0] == primitive_count(2) == 3

    def test_duals_are_kronecker(self):
        basis = rank_one_basis(2)
        outer = np.einsum("in,im->inm", basis.vectors, basis.vectors)
        gram = np.einsum("inm,jnm->ij", outer, outer)
        assert abs(np.linalg.det(gram)) > 1e-6
        for i in range(3):
            for j in range(3):
                val = float(np.sum(basis.duals[i] * outer[j]))
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_rejects_n3(self):
        with pytest.raises(InputError):
            rank_one_basis(3)


class TestCongruenceMatch:
    def test_identity_pair(self):
        L = congruence_match(np.eye(2), np.eye(2))
        assert np.allclose(L, np.eye(2), atol=1e-12)

    def test_diagonal_case(self):
        L = congruence_match(np.diag([4.0, 1.0]), np.eye(2))
        assert np.allclose(L, np.diag([2.0, 1.0]), atol=1e-12)

    def test_random_pairs_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            M = random_spd_matrix(rng)
            Mp = random_spd_matrix(rng)
            L = congruence_match(M, Mp)
            assert np.linalg.norm(L.T @ Mp @ L - M) <= 1e-10

    def test_non_spd_rejected_with_eigenvalue(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InputError, match="eigenvalue"):
            congruence_match(bad, np.eye(2))


class TestPointwiseDecompose:
    def test_transported_constant_field_has_unit_alphas(self):
        grid = PeriodicGrid((16, 16))
        L = np.array([[1.0, 0.3], [0.2, 1.5]])
        basis = rank_one_basis(2)
        v = basis.vectors @ L
        M = np.einsum("in,im->nm", v, v)
        h = MetricField.constant_matrix(grid, M)
        prims, valid = pointwise_decompose(h, (0, 0))
        assert valid.all()
        for prim in prims:
            assert np.max(np.abs(prim.amplitude.values - 1.0)) <= 1e-12

    def test_constant_multiple_of_identity_reconstructs(self):
        grid = PeriodicGrid((16, 16))
        h = MetricField.identity(grid, 2.25)
        prims, valid = pointwise_decompose(h, (3, 5))
        assert valid.all()
        err = reconstruct(prims, grid).comps - h.comps
        assert np.max(np.abs(err)) <= 1e-10

    def test_center_normalization(self):
        rng = np.random.default_rng(5)
        grid = PeriodicGrid((16, 16))
        h = random_spd_metric_field(grid, rng, base=1.5, spread=0.4)
        p = (7, 2)
        prims, _ = pointwise_decompose(h, p)
        for prim in prims:
            assert prim.amplitude.values[p] == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_identity_reconstructs_on_valid_region(self):
        grid = PeriodicGrid((32, 32))
        x, _ = grid.meshes()
        base = 1.5**2 - 1.0
        comps = np.zeros(grid.shape + (3,))
        comps[..., 0] = base + 0.1 * np.cos(x)
        comps[..., 2] = base
        h = MetricField(grid, comps)
        prims, valid = pointwise_decompose(h, (0, 0))
        assert valid.any()
        err = np.abs(reconstruct(prims, grid).comps - h.comps)
        assert np.max(err[valid]) <= 1e-8

    def test_rejects_indefinite_field(self):
        grid = PeriodicGrid((16, 16))
        comps = np.zeros(grid.shape + (3,))
        comps[..., 0] = 1.0
        comps[..., 2] = -0.5
        with pytest.raises(InputError):
            pointwise_decompose(MetricField(grid, comps), (0, 0))

    def test_node_outside_validity_is_masked(self):
        # eigenframe rotating by pi/2 across the chart: the far nodes leave
        # the positive cone of the transported basis
        grid = PeriodicGrid((64, 64))
        x, _ = grid.meshes()
        theta = x / 2.0
        c, s = np.cos(theta), np.sin(theta)
        comps = np.stack([4 * c * c + s * s, 3 * c * s, 4 * s * s + c * c],
                         axis=-1)
        h = MetricField(grid, comps)
        _, valid = pointwise_decompose(h, (0, 0))
        assert not valid[32, 0]


class TestGlobalDecompose:
    def test_constant_single_patch(self):
        grid = PeriodicGrid((32, 32))
        h = MetricField.identity(grid, 1.21)
        prims = global_decompose(h, bump_count=1)
        assert len(prims) == 3
        err = reconstruct(prims, grid).comps - h.comps
        assert np.max(np.abs(err)) <= 1e-10

    def test_overlap_bound_two_dim(self):
        rng = np.random.default_rng(9)
        grid = PeriodicGrid((32, 32))
        h = random_spd_metric_field(grid, rng, base=1.2, spread=0.3)
        prims = global_decompose(h, bump_count=4)
        assert int(np.max(active_count(prims, grid))) <= overlap_bound(2) == 9

    def test_offdiagonal_wobble_reconstructs(self):
        grid = PeriodicGrid((32, 32))
        x, y = grid.meshes()
        comps = np.zeros(grid.shape + (3,))
        comps[..., 0] = 2.25 - 0.81
        comps[..., 1] = 0.05 * np.sin(x + y)
        comps[..., 2] = 2.25 - 0.81
        h = MetricField(grid, comps)
        prims = global_decompose(h, bump_count=4)
        err = reconstruct(prims, grid).comps - h.comps
        assert np.max(np.abs(err)) <= 1e-6

    def test_primitives_are_psd_rank_one(self):
        rng = np.random.default_rng(13)
        grid = PeriodicGrid((16, 16))
        h = random_spd_metric_field(grid, rng, base=1.0, spread=0.3)
        for prim in global_decompose(h, bump_count=2):
            assert float(np.min(prim.amplitude.values)) >= 0.0
            mats = prim.tensor().matrices()
            eigs = np.linalg.eigvalsh(mats)
            assert np.min(eigs[..., 0]) >= -1e-12
            # rank <= 1: second eigenvalue vanishes
            assert np.max(np.abs(eigs[..., 0])) <= 1e-12 or np.max(eigs[..., 0]) <= 1e-12

    def test_circle_decomposition(self):
        grid = PeriodicGrid((64,))
        (x,) = grid.meshes()
        h = MetricField(grid, (0.5 + 0.2 * np.cos(x))[..., None])
        prims = global_decompose(h, bump_count=2)
        err = reconstruct(prims, grid).comps - h.comps
        assert np.max(np.abs(err)) <= 1e-10
        assert int(np.max(active_count(prims, grid))) <= overlap_bound(1) == 2

    def test_coverage_error_on_wild_field(self):
        grid = PeriodicGrid((64, 64))
        x, _ = grid.meshes()
        comps = np.zeros(grid.shape + (3,))
        comps[..., 0] = 1.01 + 0.99 * np.cos(x)
        comps[..., 2] = 1.01 + 0.99 * np.cos(x)
        h = MetricField(grid, comps)
        with pytest.raises(CoverageError):
            global_decompose(h, bump_count=1)

    def test_odd_lattice_rejected_in_2d(self):
        grid = PeriodicGrid((16, 16))
        with pytest.raises(InputError):
            global_decompose(MetricField.identity(grid), bump_count=3)


class TestPrimitiveMetric:
    def test_rejects_negative_amplitude(self):
        grid = PeriodicGrid((16,))
        with pytest.raises(InputError):
            PrimitiveMetric(
                amplitude=ScalarField.constant(grid, -1.0),
                psi_linear=np.array([1.0]),
            )

    def test_rejects_non_scalar_amplitude(self):
        grid = PeriodicGrid((16,))
        with pytest.raises(InputError, match="amplitude must be scalar, got metric data"):
            PrimitiveMetric(amplitude=MetricField.identity(grid), psi_linear=np.array([1.0]))

    def test_constructor_refuses_vanishing_dpsi(self):
        grid = PeriodicGrid((16,))
        with pytest.raises(InputError, match="dpsi vanishes"):
            PrimitiveMetric(
                amplitude=ScalarField.constant(grid, 1.0),
                psi_linear=np.array([0.0]),
            )
