import numpy as np
import pytest

from corrugate import frame as frame_module
from corrugate.errors import CapabilityError, InputError, PropagationError
from corrugate.frame import (
    FramePair,
    _orthonormal_tangents,
    _seed_pair,
    _step,
    _transport,
    normal_pair,
)
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


class TestTorusRowSweep:
    def test_matches_a_node_by_node_sweep(self):
        grid = PeriodicGrid((256, 256))
        x, y = grid.meshes()
        w = clifford_map(grid, r=1.0)
        w = ImmersionField(grid, w.values * (1.0 + 0.05 * np.sin(x + 2 * y))[..., None])
        pair = normal_pair(w)
        assert pair.nu.flags["C_CONTIGUOUS"] and pair.b.flags["C_CONTIGUOUS"]
        assert pair.nu.shape == pair.b.shape == (256, 256, 4)
        tangents = _orthonormal_tangents(w)
        nu = np.empty_like(pair.nu)
        b = np.empty_like(pair.b)
        nu[:, 0], b[:, 0] = _transport(
            tangents[:, 0], *_seed_pair(tangents[0, 0], 4), "seed column ")
        for i in range(256):
            for j in range(1, 256):
                nu[i, j], b[i, j] = _step(nu[i, j - 1], b[i, j - 1], tangents[i, j],
                                          f"({i}, {j})")
        assert np.array_equal(pair.nu, nu)
        assert np.array_equal(pair.b, b)


def _sweep(tangents, nu0, b0):
    """Node-by-node transport: project the previous pair, Gram-Schmidt it."""
    nu = np.empty((tangents.shape[0], nu0.size))
    b = np.empty_like(nu)
    nu[0], b[0] = nu0, b0
    for k in range(1, tangents.shape[0]):
        coeff_nu = tangents[k] @ nu[k - 1]
        coeff_b = tangents[k] @ b[k - 1]
        p_nu = nu[k - 1] - coeff_nu @ tangents[k]
        p_b = b[k - 1] - coeff_b @ tangents[k]
        nu[k] = p_nu / np.linalg.norm(p_nu)
        p_b = p_b - (p_b @ nu[k]) * nu[k]
        b[k] = p_b / np.linalg.norm(p_b)
    return nu, b


def _corrugated_circle(res, lam=64, a=0.6):
    """Unit circle in R^3 with an out-of-plane corrugation of frequency lam."""
    grid = PeriodicGrid((res,))
    (x,) = grid.meshes()
    r = 1.0 + (a / lam) * np.cos(lam * x)
    return ImmersionField(grid, np.stack(
        [r * np.cos(x), r * np.sin(x), (a / lam) * np.sin(lam * x)], axis=-1))


def _planar_wiggle(res, lam=1024, a=2.0):
    """A circle in the plane z = 0 of R^3 with a radial wiggle of frequency
    lam: the transport contracts the in-plane normal by a factor per node
    that underflows over the loop, while the out-of-plane normal keeps its
    length."""
    grid = PeriodicGrid((res,))
    (x,) = grid.meshes()
    r = 1.0 + (a / lam) * np.cos(lam * x)
    return ImmersionField(grid, np.stack([r * np.cos(x), r * np.sin(x), 0.0 * x], axis=-1))


def _twisted_curve(res):
    """A closed curve in R^4 with torsion in every normal direction."""
    grid = PeriodicGrid((res,))
    (x,) = grid.meshes()
    return ImmersionField(grid, np.stack(
        [np.cos(x), np.sin(x), 0.3 * np.cos(3 * x), 0.2 * np.sin(5 * x)], axis=-1))


class TestTransport:
    @pytest.mark.parametrize(
        "path", ["corrugated_circle", "planar_wiggle", "curve_r4", "torus_seed_column"])
    def test_scan_matches_node_sweep(self, path):
        if path == "corrugated_circle":
            tangents = _orthonormal_tangents(_corrugated_circle(4096))
        elif path == "planar_wiggle":
            tangents = _orthonormal_tangents(_planar_wiggle(4096))
        elif path == "curve_r4":
            tangents = _orthonormal_tangents(_twisted_curve(512))
        else:
            grid = PeriodicGrid((64, 64))
            x, y = grid.meshes()
            w = clifford_map(grid, r=0.9)
            bump = 0.05 * np.sin(x + 2 * y)
            w = ImmersionField(grid, w.values * (1.0 + bump)[..., None])
            tangents = _orthonormal_tangents(w)[:, 0]
        seed = _seed_pair(tangents[0], tangents.shape[-1])
        nu, b = _transport(tangents, *seed)
        nu_ref, b_ref = _sweep(tangents, *seed)
        assert np.max(np.abs(nu - nu_ref)) <= 1e-12
        assert np.max(np.abs(b - b_ref)) <= 1e-12

    def test_right_angle_turn_raises_at_its_node(self):
        n = 12
        tangents = np.zeros((n, 1, 3))
        tangents[:5, 0, 0] = 1.0
        tangents[5:, 0, 1] = 1.0
        e = np.eye(3)
        with pytest.raises(PropagationError, match=r"node \(5,\)"):
            _transport(tangents, e[1], e[2])

    def test_step_collapse_names_its_node(self):
        # four rows advance together; at row 3 the tangent is the pair's nu
        e = np.eye(3)
        nu, b = np.tile(e[0], (4, 1)), np.tile(e[1], (4, 1))
        tangents = np.tile(e[2], (4, 1, 1))
        tangents[3, 0] = e[0]
        with pytest.raises(PropagationError, match=r"at node \(:, 7\)\(3,\) \(Gram det"):
            _step(nu, b, tangents, "(:, 7)")

    def test_seed_collapses_without_a_normal_plane(self):
        with pytest.raises(PropagationError, match=r"at node seed\(\) \(Gram det"):
            _seed_pair(np.eye(3)[:2], 3)

    def test_circle_renormalizes_independently_of_node_count(self, monkeypatch):
        calls = {"_step": 0, "_scan": 0}
        for name in calls:
            original = getattr(frame_module, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(frame_module, name, counting)
        counts = []
        for res in (64, 4096):
            for name in calls:
                calls[name] = 0
            normal_pair(unit_circle_map(PeriodicGrid((res,))))
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        # one scan covers the whole loop: no restart on a smooth circle
        assert counts[1]["_scan"] == 1
