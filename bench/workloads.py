"""The three benchmark workloads: inputs drawn from a seed, the operation
each one runs through the public API, and the contract its result must
meet.

Seed 0 gives the reference inputs. Any other seed adds a small
band-limited change to the target (the metric g on the torus, the target
scale on the circle, alpha in the flow), small enough that every contract
below still holds and the accepted grids stay the same.

The torus change is a sum of sine modes, so it vanishes at node (0, 0),
where the decomposition reads its patch-center matrix. The reference g is
a multiple of the identity there; its eigenbasis is degenerate, and any
change at that node would turn the primitive directions, their integer
frequencies and with them the grid sizes, so that seeds would measure
different amounts of work rather than different data.

A workload is run as ``prepare`` (untimed, part of set-up) followed by
``solve`` (timed): the operation together with its checks. ``solve``
returns an ``Outcome``; a failed or check-violating operation is counted
there, never raised.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corrugate
from corrugate import cli, corrugation, decompose, fieldio, frame
from corrugate import grid as G

#: relative size of the seeded change to each workload's target. The
#: circle's reference scale 1.2 lies within 0.1% of scales at which stage 2
#: needs twice the grid (32768 nodes, not 16384), hence its small jitter.
TORUS_WOBBLE = 0.01
CIRCLE_SCALE_JITTER = 0.0005
FLOW_ALPHA_JITTER = 0.01

#: band-limited modes (kx, ky) of the torus metric change
TORUS_MODES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2))

#: largest relative difference allowed between an accepted lift and its
#: input at the input's nodes (rounding of the spectral interpolation)
LIFT_TOL = 1e-9

#: err_ratio reported when no operation produced a measurable result
NO_MEASUREMENT = 1e6

#: reference inputs; ``tiny`` shrinks each workload for the harness self-test
REFERENCE = {
    "torus_search": {"resolution": 64, "scale": 1.5, "delta": 0.25,
                     "bump_count": 1, "eta_budget": 0.5 / 9, "delta_budget": 0.05},
    "circle_run": {"stages": 2, "epsilon": 0.5, "resolution": 64, "target_scale": 1.2},
    "flow_alpha": {"alpha": 0.04, "t0": 10.0, "tend": 22.0, "tol": 1e-4,
                   "resolution": 256},
}
WORKLOADS = tuple(REFERENCE)
TINY = {
    "torus_search": {"resolution": 32, "delta_budget": 0.2},
    "circle_run": {"stages": 1},
    "flow_alpha": {"tend": 15.0, "resolution": 64},
}


@dataclass
class Outcome:
    """Result of one solve: operations attempted and failed, grid nodes of
    the accepted results, and the worst error over its tolerance."""

    attempted: int = 0
    failed: int = 0
    nodes_final: int = 0
    err_ratio: float = 0.0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str):
        self.failed += 1
        self.notes.append(note)

    def measured(self, ratio: float):
        self.err_ratio = max(self.err_ratio, ratio)

    def finish(self) -> "Outcome":
        if self.failed == self.attempted:
            self.err_ratio = NO_MEASUREMENT
        return self


def draw_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Inputs of ``workload`` for ``seed`` (plain JSON values)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    inputs = dict(REFERENCE[workload])
    if tiny:
        inputs.update(TINY[workload])
    if seed == 0:
        return inputs
    # the stdlib generator loads nothing that seed 0 would not, so peak RSS
    # stays comparable across seeds (numpy.random alone adds ~6 MiB)
    rng = random.Random(seed)
    if workload == "torus_search":
        # one sine coefficient per mode and metric component, scaled so each
        # component's change has sup norm at most TORUS_WOBBLE
        coeffs = [[rng.uniform(-1.0, 1.0) for _ in TORUS_MODES] for _ in range(3)]
        inputs["g_wobble"] = [[TORUS_WOBBLE * a / sum(map(abs, row)) for a in row]
                              for row in coeffs]
    elif workload == "circle_run":
        inputs["target_scale"] *= 1.0 + CIRCLE_SCALE_JITTER * rng.uniform(-1.0, 1.0)
    else:
        inputs["alpha"] *= 1.0 + FLOW_ALPHA_JITTER * rng.uniform(-1.0, 1.0)
    return inputs


def _torus_target(grid, inputs) -> G.MetricField:
    """scale^2 * (I + P) with P the seeded sine-mode change (0 at seed 0)."""
    comps = np.zeros(grid.shape + (3,))
    comps[..., 0] = comps[..., 2] = 1.0
    x, y = grid.meshes()
    for c, per_mode in enumerate(inputs.get("g_wobble", [])):
        for (kx, ky), a in zip(TORUS_MODES, per_mode):
            comps[..., c] += a * np.sin(kx * x + ky * y)
    return G.MetricField(grid, inputs["scale"] ** 2 * comps)


def _circle(resolution: int, ambient: int) -> G.ImmersionField:
    grid = G.PeriodicGrid((resolution,))
    (x,) = grid.meshes()
    cols = [np.cos(x), np.sin(x)] + [np.zeros_like(x)] * (ambient - 2)
    return G.ImmersionField(grid, np.stack(cols, axis=-1))


def prepare(workload: str, inputs: dict, workdir: Path) -> dict:
    """Everything a solve needs, built before the clock starts."""
    if workload == "torus_search":
        r = inputs["resolution"]
        grid = G.PeriodicGrid((r, r))
        x, y = grid.meshes()
        w = G.ImmersionField(grid, np.stack([np.cos(x), np.sin(x), np.cos(y), np.sin(y)], -1))
        return {"w": w, "g": _torus_target(grid, inputs)}
    prefix = str(workdir / workload)
    if workload == "circle_run":
        argv = ["run", "--manifold", "circle", "--stages", str(inputs["stages"]),
                "--epsilon", repr(inputs["epsilon"]),
                "--resolution", str(inputs["resolution"]),
                "--target-scale", repr(inputs["target_scale"]), "--out-prefix", prefix]
    else:
        argv = ["flow", "--alpha", repr(inputs["alpha"]), "--t0", repr(inputs["t0"]),
                "--tend", repr(inputs["tend"]), "--tol", repr(inputs["tol"]),
                "--resolution", str(inputs["resolution"]), "--out-prefix", prefix]
    return {"argv": argv, "prefix": prefix}


def solve(workload: str, inputs: dict, prepared: dict) -> Outcome:
    """Run the workload's operation(s) and check every result."""
    out = Outcome()
    try:
        if workload == "torus_search":
            _solve_torus(inputs, prepared, out)
        else:
            out.attempted += 1
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = cli.main(prepared["argv"])
            if rc != 0:
                out.fail(f"exit code {rc}: {err.getvalue().strip()}")
            elif workload == "circle_run":
                _check_circle(inputs, prepared["prefix"], out)
            else:
                _check_flow(inputs, prepared["prefix"], out)
    except Exception:  # a crash in the program counts as a failed operation
        out.attempted = max(out.attempted, out.failed + 1)
        out.fail(traceback.format_exc(limit=3))
    return out.finish()


def _solve_torus(inputs, prepared, out: Outcome):
    """Decompose the gap as ``run_stage`` does, then search lambda for every
    primitive from the unperturbed map."""
    w, g = prepared["w"], prepared["g"]
    flag, margin = G.is_short(w, g, strict=True)
    if not flag:
        out.attempted += 1
        out.fail(f"start map is not strictly short (margin {margin:.3e})")
        return
    norm_g = G.sup_norm(g, 0)
    delta0 = min(inputs["delta"] / (2.0 * norm_g + 1e-12), 0.5 * margin / norm_g)
    h = (1.0 - delta0) * g - G.pullback_metric(w)
    prims = decompose.global_decompose(h, bump_count=inputs["bump_count"])
    pair = frame.normal_pair(w)
    for j, prim in enumerate(prims):
        _search_primitive(j, w, prim, pair, inputs, out)


def _search_primitive(j, w, prim, pair, inputs, out: Outcome):
    """One lambda search, checked: the accepted fields are the inputs lifted
    to the accepted grid, and the estimates re-measured there at the
    accepted lambda pass. Its own function, so that one search's fine-grid
    arrays are freed before the next search starts."""
    eta_b, delta_b = inputs["eta_budget"], inputs["delta_budget"]
    out.attempted += 1
    try:
        params, fields = corrugation.choose_lambda(w, prim, pair, eta_b, delta_b)
    except corrugate.CorrugateError as exc:
        out.fail(f"primitive {j}: {exc}")
        return
    lift_err = _lift_error(w, prim, fields)
    if lift_err > LIFT_TOL:
        out.fail(f"primitive {j}: accepted fields differ from the inputs at the "
                 f"input nodes by {lift_err:.3e}")
        return
    wp = corrugation.spiral_perturbation(fields.w, fields.prim, fields.frame, params.lam)
    check = corrugation.check_stage_estimates(
        fields.w, fields.w + wp, fields.prim, eta_b, delta_b)
    out.measured(check.incr_err / delta_b)
    if not check.ok:
        out.fail(f"primitive {j}: re-measured estimates fail ({check.failing()})")
        return
    out.nodes_final += fields.grid.num_nodes


def _lift_error(w, prim, fields) -> float:
    """Largest difference, relative to the input's size, between the
    accepted fields and the input map and primitive at the input's nodes.

    The accepted grid refines the input grid by powers of two, and
    spectral interpolation keeps the values at the old nodes, so a
    correct lift differs there by rounding only."""
    if not (np.array_equal(fields.prim.psi_linear, prim.psi_linear)
            and np.array_equal(fields.w.offsets, w.offsets)):
        return math.inf
    stride = tuple(n // m for n, m in zip(fields.grid.shape, w.grid.shape))
    if any(s * m != n for s, m, n in zip(stride, w.grid.shape, fields.grid.shape)):
        return math.inf
    nodes = tuple(slice(None, None, s) for s in stride)
    err = 0.0
    for fine, coarse in ((fields.w.periodic, w.periodic),
                         (fields.prim.amplitude.values, prim.amplitude.values),
                         (fields.prim.psi_periodic.values, prim.psi_periodic.values)):
        scale = max(1.0, float(np.max(np.abs(coarse))))
        err = max(err, float(np.max(np.abs(fine[nodes] - coarse))) / scale)
    return err


def _check_circle(inputs, prefix: str, out: Outcome):
    """Each stage's defect within delta_q plus its slack, total C0 move
    within epsilon/2, and a short final map."""
    report = cli.parse_report(f"{prefix}_report.csv", "run")
    stages = inputs["stages"]
    if len(report.stage_reports) != stages:
        out.fail(f"{len(report.stage_reports)} stage reports, expected {stages}")
        return
    for q, rep in enumerate(report.stage_reports, start=1):
        if rep.defect_after > 4.0 ** (-q) + rep.slack:
            out.fail(f"stage {q} defect {rep.defect_after:.3e} above 4^-{q}")
            return
    u = fieldio.read_field(f"{prefix}_final.csv")
    v0 = G.resample(_circle(inputs["resolution"], u.ambient_dim), u.grid)
    g = G.MetricField.identity(u.grid, inputs["target_scale"] ** 2)
    defect = G.sup_norm(g - G.pullback_metric(u), 0)
    out.measured(defect / 4.0 ** (-stages))
    c0 = G.sup_norm(u - v0, 0)
    short, margin = G.is_short(u, g)
    if defect > 4.0 ** (-stages) + report.stage_reports[-1].slack:
        out.fail(f"final defect {defect:.3e} above 4^-{stages}")
    elif c0 > inputs["epsilon"] / 2.0:
        out.fail(f"C0 move {c0:.3e} above epsilon/2")
    elif not short:
        out.fail(f"final map is not short (margin {margin:.3e})")
    else:
        out.nodes_final += u.grid.num_nodes


def _check_flow(inputs, prefix: str, out: Outcome):
    """Final metric residual within tol and g11 within 1e-4 of 1 + alpha;
    orthogonality and identity audits within 1e-8 and 1e-6 at every step."""
    samples = cli.parse_report(f"{prefix}_diagnostics.csv", "flow")
    u = fieldio.read_field(f"{prefix}_final.csv")
    w0 = _circle(inputs["resolution"], 2)
    alpha, tol = inputs["alpha"], inputs["tol"]
    pull = G.pullback_metric(u)
    h = G.MetricField(u.grid, np.full(u.grid.shape + (1,), alpha))
    residual = G.sup_norm(pull - G.pullback_metric(w0) - h, 0)
    out.measured(residual / tol)
    g11_dev = float(np.max(np.abs(pull.comps - (1.0 + alpha))))
    ortho = max((s.ortho_resid for s in samples), default=math.inf)
    ident = max((s.identity_resid for s in samples), default=math.inf)
    if residual > tol:
        out.fail(f"metric residual {residual:.3e} above tol {tol:.1e}")
    elif g11_dev > 1e-4:
        out.fail(f"|g11 - (1 + alpha)| = {g11_dev:.3e} above 1e-4")
    elif not ortho <= 1e-8:
        out.fail(f"orthogonality residual {ortho:.3e} above 1e-8")
    elif not ident <= 1e-6:
        out.fail(f"identity residual {ident:.3e} above 1e-6")
    else:
        out.nodes_final += u.grid.num_nodes
