import numpy as np
import pytest

from corrugate.errors import ConsistencyError, InputError, SingularityError
from corrugate.grid import ImmersionField, PeriodicGrid, spectral_gradient, symmetric_product
from corrugate.leastnorm import (
    LinearSystem,
    _derivative_stack,
    _identity_residual,
    _min_norm_velocity,
    _spd_solve,
    is_free,
    least_norm_solve,
)

from conftest import unit_circle_map


def free_torus_map(grid):
    """(cos x, sin x, cos y, sin y, cos(x+y), sin(x+y)) into R^6."""
    x, y = grid.meshes()
    vals = np.stack([np.cos(x), np.sin(x), np.cos(y), np.sin(y),
                     np.cos(x + y), np.sin(x + y)], axis=-1)
    return ImmersionField(grid, vals)


def min_norm_velocity(w, hdot):
    """The nodewise minimum-norm wdot with 2 dw (.) dwdot = hdot, as a field,
    its differential identity checked."""
    stack, rates = _derivative_stack(w), np.moveaxis(hdot, -1, 0)
    wdot = np.moveaxis(_min_norm_velocity(stack, rates), 0, -1)
    _identity_residual(stack[:w.grid.dim],
                       np.moveaxis(spectral_gradient(wdot, w.grid), (-2, -1), (0, 1)), rates)
    return ImmersionField.from_periodic(w.grid, wdot)


class TestLeastNormSolve:
    def test_identity(self):
        omega = least_norm_solve(LinearSystem(np.eye(2), [3.0, 4.0]))
        assert np.allclose(omega, [3.0, 4.0], atol=1e-14)

    def test_symmetry_forced(self):
        omega = least_norm_solve(LinearSystem([[1.0, 1.0]], [2.0]))
        assert np.allclose(omega, [1.0, 1.0], atol=1e-14)

    def test_rectangular_hand_oracle(self):
        # A A^T = diag(1,4); (A A^T)^{-1} v = (1, 1/2); omega = A^T(...)
        A = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        omega = least_norm_solve(LinearSystem(A, [1.0, 2.0]))
        assert np.allclose(omega, [1.0, 1.0, 0.0], atol=1e-14)

    def test_overdetermined_rejected(self):
        with pytest.raises(InputError):
            LinearSystem(np.ones((3, 2)), np.ones(3))

    def test_rank_deficiency(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(SingularityError):
            least_norm_solve(LinearSystem(A, [1.0, 2.0]))

    def test_nan_system_is_refused_at_the_pivot_floor(self):
        # a NaN system is refused on input; a NaN 2x2 Gram still fails the
        # closed form's pivot comparison
        A = np.ones((2, 5))
        A[0, 0] = np.nan
        with pytest.raises(InputError, match="non-finite values in system matrix"):
            least_norm_solve(LinearSystem(A, np.ones(2)))
        with pytest.raises(SingularityError, match="relative floor"):
            _spd_solve(np.array([[np.nan, 1.0], [1.0, 5.0]]), np.ones(2))

    @pytest.mark.parametrize("where, bad", [("system matrix", np.nan),
                                            ("right-hand side", np.inf),
                                            ("right-hand side", np.nan)])
    def test_non_finite_system_refused(self, where, bad):
        # a 3x5 system: a NaN in A reached eigh, a bad v gave all-NaN solutions
        A, v = np.arange(15.0).reshape(3, 5), np.ones(3)
        (A if where == "system matrix" else v)[1] = bad
        with pytest.raises(InputError, match=f"non-finite values in {where}") as refused:
            least_norm_solve(LinearSystem(A, v))
        assert refused.value.exit_code == 2

    def test_batched_systems_match_one_at_a_time(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(5, 3, 2, 4))
        v = rng.normal(size=(5, 3, 2))
        batched = least_norm_solve(LinearSystem(A, v))
        assert batched.shape == (5, 3, 4)
        for idx in np.ndindex(5, 3):
            one = least_norm_solve(LinearSystem(A[idx], v[idx]))
            assert np.max(np.abs(batched[idx] - one)) <= 1e-13
        with pytest.raises(InputError):
            LinearSystem(A, v[..., :1])

    def test_batched_solve_and_pivot_floor(self):
        rng = np.random.default_rng(29)
        M = rng.normal(size=(8, 4, 4))
        grams = M @ np.swapaxes(M, -1, -2) + np.eye(4)
        rhs = rng.normal(size=(8, 4))
        ref = np.linalg.solve(grams, rhs[..., None])[..., 0]
        assert np.max(np.abs(_spd_solve(grams, rhs) - ref)) <= 1e-13 * np.max(np.abs(ref))
        B = rng.normal(size=(4, 3))
        grams[5] = B @ B.T  # rank 3: smallest eigenvalue at rounding level
        with pytest.raises(SingularityError):
            _spd_solve(grams, rhs)

    def test_two_by_two_closed_form_matches_eigh(self):
        rng = np.random.default_rng(31)
        M = rng.normal(size=(64, 2, 5))
        grams = M @ np.swapaxes(M, -1, -2)
        rhs = rng.normal(size=(64, 2))
        eigs, vecs = np.linalg.eigh(grams)
        ref = np.einsum("...ij,...j->...i", vecs,
                        np.einsum("...ji,...j->...i", vecs, rhs) / eigs)
        assert np.max(np.abs(_spd_solve(grams, rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ratio, singular", [(2e-12, False), (0.5e-12, True)])
    def test_two_by_two_pivot_floor(self, ratio, singular):
        # eigenvalues 1 and ratio, turned off the axes so that q != 0
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        gram = rot @ np.diag([1.0, ratio]) @ rot.T
        rhs = rot @ np.array([1.0, ratio])
        if singular:
            with pytest.raises(SingularityError, match="relative floor"):
                _spd_solve(gram, rhs)
        else:
            # the exact solution is rot @ (1, 1)
            assert np.max(np.abs(_spd_solve(gram, rhs) - rot @ np.ones(2))) <= 1e-3

    def test_residual_and_minimality_on_seeded_systems(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            kappa = int(rng.integers(k, 13))
            A = rng.normal(size=(k, kappa))
            v = rng.normal(size=k)
            omega = least_norm_solve(LinearSystem(A, v))
            assert np.linalg.norm(A @ omega - v) <= 1e-10 * max(1.0, np.linalg.norm(v))
            # perturbations inside the kernel of A can only grow the norm
            pinv_factor = A.T @ np.linalg.inv(A @ A.T)
            for _ in range(5):
                raw = rng.normal(size=kappa)
                kernel = raw - pinv_factor @ (A @ raw)
                assert np.linalg.norm(omega + kernel) >= np.linalg.norm(omega) - 1e-12


class TestIsFree:
    def test_circle_gram_det_is_one(self):
        grid = PeriodicGrid((128,))
        report = is_free(unit_circle_map(grid, ambient=2))
        assert report.is_free
        assert np.isclose(report.min_gram_det, 1.0, atol=1e-9)

    def test_torus_into_r4_rejected_by_dimension_count(self):
        grid = PeriodicGrid((16, 16))
        x, y = grid.meshes()
        vals = np.stack([np.cos(x), np.sin(x), np.cos(y), np.sin(y)], axis=-1)
        report = is_free(ImmersionField(grid, vals))
        assert not report.is_free
        assert report.reason == "dimension count"

    def test_ellipse_gram_det(self):
        # [w', w''] has determinant 2 sin^2 + 2 cos^2 = 2 pointwise, so the
        # 2x2 Gram determinant is its square, 4
        grid = PeriodicGrid((128,))
        (x,) = grid.meshes()
        w = ImmersionField(grid, np.stack([2 * np.cos(x), np.sin(x)], axis=-1))
        report = is_free(w)
        assert report.is_free
        assert np.isclose(report.min_gram_det, 4.0, atol=1e-9)

    def test_free_torus_map(self):
        report = is_free(free_torus_map(PeriodicGrid((32, 32))))
        assert report.is_free


class TestApplyL:
    def test_solves_with_one_spd_solve(self, monkeypatch):
        import corrugate.leastnorm as leastnorm

        # a curve's 2x2 systems are solved in closed form, from their node
        # vectors p, q, r
        systems = []
        solve = leastnorm._solve_2x2
        monkeypatch.setattr(leastnorm, "_solve_2x2",
                            lambda p, *args: systems.append(p) or solve(p, *args))
        grid = PeriodicGrid((64,))
        min_norm_velocity(unit_circle_map(grid, ambient=2), np.full((64, 1), 0.3))
        assert len(systems) == 1
        assert systems[0].shape == (64,)

    def test_matches_least_norm_solve_of_the_stacked_system(self):
        # one factorization of A A^T and the zero rows left to the solve give
        # the minimum-norm solution of the full stacked system
        rng = np.random.default_rng(41)
        for d, ambient in ((1, 2), (1, 3), (2, 5), (2, 6)):
            m = d + d * (d + 1) // 2
            stack = rng.normal(size=(7, m, ambient))
            hdot = rng.normal(size=(7, m - d))
            A = stack * np.r_[np.ones(d), np.full(m - d, -2.0)][:, None]
            want = least_norm_solve(LinearSystem(A, np.concatenate([np.zeros((7, d)), hdot], -1)))
            got = _min_norm_velocity(np.moveaxis(stack, 0, -1), hdot.T).T
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_rate_gives_zero_velocity(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid, ambient=2)
        wdot = min_norm_velocity(w, np.zeros(grid.shape + (1,)))
        assert np.max(np.abs(wdot.values)) <= 1e-14

    def test_constant_rate_is_radial(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid, ambient=2)
        c = 0.3
        wdot = min_norm_velocity(w, np.full(grid.shape + (1,), c))
        assert np.max(np.abs(wdot.values - (c / 2.0) * w.values)) <= 1e-12

    def test_cosine_rate_residual(self):
        grid = PeriodicGrid((256,))
        (x,) = grid.meshes()
        w = unit_circle_map(grid, ambient=2)
        hdot = np.cos(x)[..., None]
        wdot = min_norm_velocity(w, hdot)
        resid = symmetric_product(w, wdot).comps * 2.0 - hdot
        assert np.max(np.abs(resid)) <= 1e-8

    def test_consistency_error_on_coarse_grid(self):
        # mode close to Nyquist: the nodewise solve cannot satisfy the
        # differential identity and the a-posteriori check must fire
        grid = PeriodicGrid((16,))
        (x,) = grid.meshes()
        w = unit_circle_map(grid, ambient=2)
        with pytest.raises(ConsistencyError):
            min_norm_velocity(w, np.cos(7 * x)[..., None])

    def test_coordinate_rotation_invariance(self):
        # rotate the chart coordinates at the algebra level: derivatives and
        # hdot transform, the minimum-norm solution vector does not
        grid = PeriodicGrid((16, 16))
        w = free_torus_map(grid)
        first = w.derivatives()
        second = w.second_derivatives()
        theta = np.pi / 6
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        rng = np.random.default_rng(5)
        hd = rng.normal(size=(2, 2))
        hd = (hd + hd.T) / 2.0

        pairs = [(0, 0), (0, 1), (1, 1)]
        for node in [(0, 0), (3, 7), (11, 2)]:
            d1 = first[node]
            d2 = second[node]
            A_plain = np.vstack([d1, [-2.0 * d2[i, j] for i, j in pairs]])
            v_plain = np.concatenate([np.zeros(2), [hd[i, j] for i, j in pairs]])
            sol_plain = least_norm_solve(LinearSystem(A_plain, v_plain))

            d1_rot = np.einsum("ki,ka->ia", R, d1)
            d2_rot = np.einsum("ki,lj,kla->ija", R, R, d2)
            hd_rot = R.T @ hd @ R
            A_rot = np.vstack([d1_rot, [-2.0 * d2_rot[i, j] for i, j in pairs]])
            v_rot = np.concatenate([np.zeros(2), [hd_rot[i, j] for i, j in pairs]])
            sol_rot = least_norm_solve(LinearSystem(A_rot, v_rot))

            assert np.max(np.abs(sol_plain - sol_rot)) <= 1e-8
