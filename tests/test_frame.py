import numpy as np
import pytest

from corrugate import frame as frame_module
from corrugate.errors import CapabilityError, InputError, PropagationError
from corrugate.frame import FramePair, normal_pair
from corrugate.grid import ImmersionField, PeriodicGrid

from conftest import clifford_map, flat_strip_map, plane_projector, unit_circle_map


def _clifford_pair(grid):
    """The Clifford torus's radial normal pair, (cos x, sin x, 0, 0) and
    (0, 0, cos y, sin y)."""
    x, y = grid.meshes()
    zeros = np.zeros_like(x)
    return (np.stack([np.cos(x), np.sin(x), zeros, zeros], axis=-1),
            np.stack([zeros, zeros, np.cos(y), np.sin(y)], axis=-1))


class TestNormalPair:
    def test_flat_strip_constant_pair_in_e3_e4(self):
        grid = PeriodicGrid((16, 16))
        frame = normal_pair(flat_strip_map(grid))
        frame.validate(flat_strip_map(grid))
        # normal plane is exactly span{e3, e4}
        proj = plane_projector(frame)
        expected = np.zeros((4, 4))
        expected[2, 2] = expected[3, 3] = 1.0
        assert np.max(np.abs(proj - expected)) <= 1e-12
        # pair is constant across the grid
        assert np.max(np.abs(frame.nu - frame.nu[0, 0])) <= 1e-12
        assert np.max(np.abs(frame.b - frame.b[0, 0])) <= 1e-12

    def test_tilted_flat_strip_seeds_a_valid_pair(self):
        # every coordinate axis has normal residual 1/sqrt(2) at the seed, and
        # e1, e2 project to opposite multiples of one normal
        grid = PeriodicGrid((16, 16))
        c = np.sqrt(0.5)
        w = ImmersionField.from_periodic(grid, np.zeros(grid.shape + (4,)),
                                         [[c, c, 0.0, 0.0], [0.0, 0.0, c, c]])
        normal_pair(w).validate(w)

    def test_clifford_candidate_pair_passes_invariants(self):
        grid = PeriodicGrid((32, 32))
        FramePair(grid, *_clifford_pair(grid)).validate(clifford_map(grid, r=0.8))

    @pytest.mark.parametrize("defect, message", [
        ("stretched", "nu is not unit length"), ("sheared", "not mutually orthogonal"),
        ("tilted", "not normal to the immersion")])
    def test_validate_refuses_a_broken_pair(self, defect, message):
        grid = PeriodicGrid((32, 32))
        nu, b = _clifford_pair(grid)
        if defect == "stretched":
            nu = (1.0 + 1e-8) * nu
        elif defect == "sheared":
            b = (b + 1e-8 * nu) / np.sqrt(1.0 + 1e-16)
        else:
            # turn nu by 1e-7 rad toward the unit x-tangent: still unit and
            # orthogonal to b
            tangent = np.stack([-nu[..., 1], nu[..., 0], nu[..., 2], nu[..., 3]], axis=-1)
            nu = np.cos(1e-7) * nu + np.sin(1e-7) * tangent
        with pytest.raises(InputError, match=message):
            FramePair(grid, nu, b).validate(clifford_map(grid, r=0.8))

    @pytest.mark.parametrize("which", ["nu", "b"])
    def test_validate_refuses_a_nan(self, which):
        grid = PeriodicGrid((16, 16))
        w = clifford_map(grid)
        pair = normal_pair(w)
        getattr(pair, which)[3, 5, 1] = np.nan
        with pytest.raises(InputError, match=f"{which} is not unit length"):
            pair.validate(w)

    def test_clifford_output_satisfies_invariants(self):
        grid = PeriodicGrid((32, 32))
        w = clifford_map(grid, r=0.8)
        frame = normal_pair(w)
        frame.validate(w)
        assert frame.seam_mismatch <= 1e-6

    def test_circle_propagation_and_seam(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid)
        frame = normal_pair(w)
        frame.validate(w)
        assert frame.seam_mismatch <= 1e-6

    def test_constant_map_has_no_tangent(self):
        grid = PeriodicGrid((16, 16))
        with pytest.raises(InputError, match="zero tangent vector"):
            normal_pair(ImmersionField(grid, np.ones(grid.shape + (4,))))

    def test_parallel_derivative_columns_are_dependent(self):
        grid = PeriodicGrid((16, 16))
        x, y = grid.meshes()
        zeros = np.zeros_like(x)
        w = ImmersionField(grid, np.stack([np.cos(x + y), np.sin(x + y), zeros, zeros], axis=-1))
        with pytest.raises(InputError, match="dependent tangent vectors"):
            normal_pair(w)

    def test_codimension_one_rejected(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid, ambient=2)
        with pytest.raises(CapabilityError):
            normal_pair(w)

    def test_gauge_covariance_under_ambient_rotation(self):
        grid = PeriodicGrid((64,))
        w = unit_circle_map(grid)
        rng = np.random.default_rng(41)
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        w_rot = ImmersionField(grid, w.values @ R.T)
        p1 = plane_projector(normal_pair(w))
        p2 = plane_projector(normal_pair(w_rot))
        transported = np.einsum("ac,...cd,bd->...ab", R, p1, R)
        assert np.max(np.linalg.norm(p2 - transported, axis=(-2, -1))) <= 1e-8

    def test_gauge_covariance_torus(self):
        grid = PeriodicGrid((16, 16))
        w = clifford_map(grid, r=1.0)
        rng = np.random.default_rng(43)
        R, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        w_rot = ImmersionField(grid, w.values @ R.T)
        p1 = plane_projector(normal_pair(w))
        p2 = plane_projector(normal_pair(w_rot))
        transported = np.einsum("ac,...cd,bd->...ab", R, p1, R)
        assert np.max(np.linalg.norm(p2 - transported, axis=(-2, -1))) <= 1e-8

    def test_determinism(self):
        grid = PeriodicGrid((32, 32))
        w = clifford_map(grid, r=0.9)
        f1 = normal_pair(w)
        f2 = normal_pair(w)
        assert np.array_equal(f1.nu, f2.nu)
        assert np.array_equal(f1.b, f2.b)


def _bumped_clifford(res):
    """The Clifford torus scaled by 1 + 0.05 sin(x + 2y): its normal bundle
    is curved, so no parallel frame closes across the seams."""
    grid = PeriodicGrid((res, res))
    x, y = grid.meshes()
    bump = 1.0 + 0.05 * np.sin(x + 2 * y)
    return ImmersionField(grid, clifford_map(grid).values * bump[..., None])


class TestCoulombGauge:
    @pytest.mark.parametrize("r", [0.8, 1.0, 1.5])
    def test_clifford_frame_is_the_radial_pair(self, r):
        grid = PeriodicGrid((64, 32))
        pair = normal_pair(clifford_map(grid, r=r))
        nu, b = _clifford_pair(grid)
        assert np.max(np.abs(pair.nu - nu)) <= 1e-12
        assert np.max(np.abs(pair.b - b)) <= 1e-12

    def test_unit_circle_frame_is_the_radial_pair(self):
        grid = PeriodicGrid((64,))
        (x,) = grid.meshes()
        pair = normal_pair(unit_circle_map(grid))
        nu = np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=-1)
        assert np.max(np.abs(pair.nu - nu)) <= 1e-12
        assert np.max(np.abs(pair.b - [0.0, 0.0, 1.0])) <= 1e-12

    def test_curved_bundle_closes_across_the_seams(self):
        w = _bumped_clifford(64)
        pair = normal_pair(w)
        pair.validate(w)
        assert pair.nu.shape == pair.b.shape == (64, 64, 4)
        assert pair.nu.flags["C_CONTIGUOUS"] and pair.b.flags["C_CONTIGUOUS"]
        assert pair.seam_mismatch <= 1e-12

    def test_result_does_not_depend_on_the_start_pair(self):
        nu, b = frame_module._start_pair(_bumped_clifford(128))
        turn = np.random.default_rng(5).uniform(-np.pi, np.pi, nu.shape[1:])
        nu_t, b_t = np.cos(turn) * nu + np.sin(turn) * b, np.cos(turn) * b - np.sin(turn) * nu
        frame_module._coulomb_turn(nu, b)
        frame_module._coulomb_turn(nu_t, b_t)
        # one constant rotation takes the one result to the other
        angle = np.arctan2(nu_t[:, 0, 0] @ b[:, 0, 0], nu_t[:, 0, 0] @ nu[:, 0, 0])
        c, s = np.cos(angle), np.sin(angle)
        assert np.max(np.abs(nu_t - (c * nu + s * b))) <= 1e-12
        assert np.max(np.abs(b_t - (c * b - s * nu))) <= 1e-12

    @pytest.mark.parametrize("flux", [1, -1])
    def test_nonzero_euler_number_is_refused(self, flux):
        # links of curvature 2 pi / n^2 in every cell: one 2 pi vortex spread
        # over the torus, which no periodic frame can carry
        n = 16
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        l0 = np.where(i == n - 1, -2.0 * np.pi * j / n, 0.0)
        l1 = 2.0 * np.pi * i / n ** 2
        links = [frame_module._wrap(flux * link) for link in (l0, l1)]
        with pytest.raises(PropagationError, match=f"normal Euler number {flux}:"):
            frame_module._gauge_links(links)
