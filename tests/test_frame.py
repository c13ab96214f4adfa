import numpy as np
import pytest

from corrugate import frame as frame_module
from corrugate.errors import CapabilityError, PropagationError
from corrugate.frame import (
    FramePair,
    _orthonormal_tangents,
    _seed_pair,
    _transport,
    normal_pair,
)
from corrugate.grid import ImmersionField, PeriodicGrid

from conftest import clifford_map, flat_strip_map, unit_circle_map


class TestNormalPair:
    def test_flat_strip_constant_pair_in_e3_e4(self):
        grid = PeriodicGrid((16, 16))
        frame = normal_pair(flat_strip_map(grid))
        frame.validate(flat_strip_map(grid))
        # normal plane is exactly span{e3, e4}
        proj = frame.plane_projector()
        expected = np.zeros((4, 4))
        expected[2, 2] = expected[3, 3] = 1.0
        assert np.max(np.abs(proj - expected)) <= 1e-12
        # pair is constant across the grid
        assert np.max(np.abs(frame.nu - frame.nu[0, 0])) <= 1e-12
        assert np.max(np.abs(frame.b - frame.b[0, 0])) <= 1e-12

    def test_clifford_candidate_pair_passes_invariants(self):
        grid = PeriodicGrid((32, 32))
        w = clifford_map(grid, r=0.8)
        x, y = grid.meshes()
        zeros = np.zeros_like(x)
        nu = np.stack([np.cos(x), np.sin(x), zeros, zeros], axis=-1)
        b = np.stack([zeros, zeros, np.cos(y), np.sin(y)], axis=-1)
        FramePair(grid, nu, b).validate(w)

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
        p1 = normal_pair(w).plane_projector()
        p2 = normal_pair(w_rot).plane_projector()
        transported = np.einsum("ac,...cd,bd->...ab", R, p1, R)
        assert np.max(np.linalg.norm(p2 - transported, axis=(-2, -1))) <= 1e-8

    def test_gauge_covariance_torus(self):
        grid = PeriodicGrid((16, 16))
        w = clifford_map(grid, r=1.0)
        rng = np.random.default_rng(43)
        R, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        w_rot = ImmersionField(grid, w.values @ R.T)
        p1 = normal_pair(w).plane_projector()
        p2 = normal_pair(w_rot).plane_projector()
        transported = np.einsum("ac,...cd,bd->...ab", R, p1, R)
        assert np.max(np.linalg.norm(p2 - transported, axis=(-2, -1))) <= 1e-8

    def test_determinism(self):
        grid = PeriodicGrid((32, 32))
        w = clifford_map(grid, r=0.9)
        f1 = normal_pair(w)
        f2 = normal_pair(w)
        assert np.array_equal(f1.nu, f2.nu)
        assert np.array_equal(f1.b, f2.b)


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

    def test_circle_renormalizes_independently_of_node_count(self, monkeypatch):
        calls = {"_renormalize": 0, "_scan": 0}
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
