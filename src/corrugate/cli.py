"""Command-line surface: subcommand dispatch, config handling, reports.

Subcommands: pullback, decompose, frame, stage, run, flow, smooth-bench,
free-check. Exit codes: 0 success, 2 validation error, 3 numerical
nonconvergence, 4 capability error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import fieldio
from .corrugation import StageReport, run_stage
from .decompose import global_decompose
from .driver import IterationSchedule, RunReport, nash_kuiper_iterate
from .errors import CorrugateError, InputError
from .flow import FlowConfig, FlowDiagnostics, FlowSample, run_flow
from .frame import normal_pair
from .grid import ImmersionField, MetricField, PeriodicGrid, pullback_metric
from .leastnorm import is_free
from .smoothing import calibration_field, estimate_bench


@dataclass
class RunConfig:
    """Validated invocation: subcommand and typed parameter map."""

    command: str
    params: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"command": self.command, "params": self.params}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        extra = set(data) - {"command", "params"}
        if extra:
            raise InputError(f"unknown config keys: {sorted(extra)}")
        return cls(command=data["command"], params=dict(data.get("params", {})))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrugate",
        description="corrugation stages and the regularized isometry flow "
                    "on periodic charts")
    parser.add_argument("--config", help="JSON config file replacing CLI flags")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("pullback", help="induced metric of an immersion")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("decompose", help="split an SPD tensor field into primitives")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--bumps", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("frame", help="orthonormal normal pair along an immersion")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("stage", help="one corrugation stage")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("run", help="iterated stages toward an isometry")
    p.add_argument("--stages", type=int, default=4)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--target-scale", type=float, default=1.5,
                   help="target metric is scale^2 * identity")
    p.add_argument("--manifold", choices=("torus", "circle"), default="torus")
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("flow", help="regularized isometry flow on the circle")
    p.add_argument("--t0", type=float, default=10.0)
    p.add_argument("--alpha", type=float, default=None,
                   help="constant metric increment alpha * dx^2")
    p.add_argument("--h-file", default=None,
                   help="metric CSV with the target increment")
    p.add_argument("--tend", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--smallness", type=float, default=0.05)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("smooth-bench", help="smoothing estimate constants")
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--pairs", default="2,0;3,1;0,2")
    p.add_argument("--eps", default=None,
                   help="comma-separated scales (default 2^-1..2^-6)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("free-check", help="free-map verification")
    p.add_argument("--in", dest="in_path", required=True)
    return parser


_KNOWN_PARAMS = {
    "pullback": {"in_path", "out"},
    "decompose": {"in_path", "bumps", "out"},
    "frame": {"in_path", "out"},
    "stage": {"in_path", "metric", "eta", "delta", "out_prefix"},
    "run": {"stages", "epsilon", "resolution", "target_scale", "manifold",
            "out_prefix"},
    "flow": {"t0", "alpha", "h_file", "tend", "tol", "resolution", "smallness",
             "out_prefix"},
    "smooth-bench": {"resolution", "pairs", "eps", "out"},
    "free-check": {"in_path"},
}


def _validate(config: RunConfig) -> RunConfig:
    if config.command not in _KNOWN_PARAMS:
        raise InputError(f"unknown subcommand {config.command!r}")
    extra = set(config.params) - _KNOWN_PARAMS[config.command]
    if extra:
        raise InputError(f"unknown keys for {config.command}: {sorted(extra)}")
    p = config.params
    for key in ("stages", "resolution", "bumps"):
        if key in p and p[key] is not None and int(p[key]) < (0 if key == "stages" else 1):
            raise InputError(f"{key} must be nonnegative, got {p[key]}")
    for key in ("epsilon", "eta", "delta", "tol"):
        if key in p and p[key] is not None and float(p[key]) <= 0:
            raise InputError(f"{key} must be positive, got {p[key]}")
    return config


def parse_config(argv=None, config_file=None) -> RunConfig:
    """Parse CLI arguments (or a JSON config file) into a validated RunConfig."""
    if config_file is not None:
        with open(config_file) as fh:
            return _validate(RunConfig.from_json(fh.read()))
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config:
        return parse_config(config_file=ns.config)
    if ns.command is None:
        raise InputError("a subcommand is required (see --help)")
    params = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    return _validate(RunConfig(command=ns.command, params=params))


def emit_report(report, path):
    """Write a stage report, run report, or flow diagnostics as CSV."""
    if isinstance(report, StageReport):
        fieldio.write_table(StageReport.CSV_HEADER, [report.csv_row()], path)
    elif isinstance(report, RunReport):
        rows = report.csv_rows()
        fieldio.write_table(rows[0], rows[1:], path)
    elif isinstance(report, FlowDiagnostics):
        rows = report.csv_rows()
        fieldio.write_table(rows[0], rows[1:], path)
    else:
        raise InputError(f"cannot serialize report type {type(report).__name__}")


def parse_report(path, kind):
    header, rows = fieldio.read_table(path)
    if kind == "stage":
        return StageReport.from_csv_row(rows[0])
    if kind == "run":
        return RunReport.from_csv_rows(rows)
    if kind == "flow":
        return [FlowSample(*[float(v) for v in row]) for row in rows]
    raise InputError(f"unknown report kind {kind!r}")


def _builtin_start(manifold: str, resolution: int):
    if manifold == "torus":
        grid = PeriodicGrid((resolution, resolution))
        x, y = grid.meshes()
        vals = np.stack([np.cos(x), np.sin(x), np.cos(y), np.sin(y)], axis=-1)
        return ImmersionField(grid, vals)
    grid = PeriodicGrid((resolution,))
    (x,) = grid.meshes()
    zeros = np.zeros_like(x)
    return ImmersionField(grid, np.stack([np.cos(x), np.sin(x), zeros], axis=-1))


def _read_kind(path, cls: type, what: str):
    """Read the field file at ``path`` and require a field of class ``cls``."""
    f = fieldio.read_field(path)
    if not isinstance(f, cls):
        raise InputError(f"{what} expects {cls.kind} data, got {f.kind} data in {path}")
    return f


def _cmd_pullback(p):
    w = _read_kind(p["in_path"], ImmersionField, "pullback --in")
    fieldio.write_field(pullback_metric(w), p["out"])
    return 0


def _cmd_decompose(p):
    h = _read_kind(p["in_path"], MetricField, "decompose --in")
    prims = global_decompose(h, bump_count=p["bumps"])
    fieldio.write_primitives(prims, p["out"])
    print(f"decomposed into {len(prims)} primitives")
    return 0


def _cmd_frame(p):
    w = _read_kind(p["in_path"], ImmersionField, "frame --in")
    pair = normal_pair(w)
    fieldio.write_frame(pair, p["out"])
    print(f"seam mismatch {pair.seam_mismatch:.3e} rad")
    return 0


def _cmd_stage(p):
    w = _read_kind(p["in_path"], ImmersionField, "stage --in")
    g = _read_kind(p["metric"], MetricField, "stage --metric")
    z, report = run_stage(w, g, eta=p["eta"], delta=p["delta"])
    prefix = p["out_prefix"]
    fieldio.write_field(z, f"{prefix}_map.csv")
    emit_report(report, f"{prefix}_report.csv")
    print(f"defect {report.defect_before:.6g} -> {report.defect_after:.6g} "
          f"at resolution {report.resolution}")
    return 0


def _cmd_run(p):
    v0 = _builtin_start(p["manifold"], p["resolution"])
    scale = p["target_scale"]
    g = MetricField.identity(v0.grid, scale * scale)
    sched = IterationSchedule(epsilon=p["epsilon"], stages=p["stages"])
    prefix = p["out_prefix"]
    try:
        u, report = nash_kuiper_iterate(v0, g, sched)
    except CorrugateError as exc:
        partial = getattr(exc, "partial_report", None)
        if partial is not None and partial.stage_reports:
            emit_report(partial, f"{prefix}_report.csv")
        raise
    emit_report(report, f"{prefix}_report.csv")
    fieldio.write_field(u, f"{prefix}_final.csv")
    if u.grid.dim == 2:
        fieldio.export_obj(u, f"{prefix}_final.obj")
    print(f"final defect {report.final_defect:.6g} after "
          f"{len(report.stage_reports)} stages; C0 move {report.c0_distance:.6g}")
    return 0


def _cmd_flow(p):
    grid = PeriodicGrid((p["resolution"],))
    (x,) = grid.meshes()
    w0 = ImmersionField(grid, np.stack([np.cos(x), np.sin(x)], axis=-1))
    if (p["alpha"] is None) == (p["h_file"] is None):
        raise InputError("flow needs exactly one of --alpha or --h-file")
    if p["alpha"] is not None:
        h = MetricField(grid, np.full(grid.shape + (1,), p["alpha"]))
    else:
        h = fieldio.read_field(p["h_file"])
        if not isinstance(h, MetricField) or h.grid.shape != grid.shape:
            raise InputError("--h-file must hold a metric on the flow grid")
    cfg = FlowConfig(t0=p["t0"], t_end=p["tend"], tol=p["tol"],
                     smallness=p["smallness"])
    prefix = p["out_prefix"]
    try:
        u, diag = run_flow(w0, h, cfg)
    except CorrugateError as exc:
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics is not None:
            emit_report(diagnostics, f"{prefix}_diagnostics.csv")
        raise
    emit_report(diag, f"{prefix}_diagnostics.csv")
    fieldio.write_field(u, f"{prefix}_final.csv")
    print(f"final identity residual {diag.final_resid:.6g} over "
          f"{len(diag.samples)} steps")
    return 0


def _cmd_smooth_bench(p):
    grid = PeriodicGrid((p["resolution"],))
    T = calibration_field(grid)
    pairs = [tuple(int(v) for v in pair.split(","))
             for pair in p["pairs"].split(";") if pair]
    if p["eps"]:
        eps_grid = [float(v) for v in p["eps"].split(",")]
    else:
        eps_grid = [2.0 ** (-j) for j in range(1, 7)]
    records = estimate_bench(T, pairs, eps_grid)
    rows = [[rec["family"], str(rec["r"]), str(rec["s"]),
             f"{rec['max_ratio']:.17g}"] for rec in records]
    fieldio.write_table(["family", "r", "s", "max_ratio"], rows, p["out"])
    return 0


def _cmd_free_check(p):
    w = _read_kind(p["in_path"], ImmersionField, "free-check --in")
    report = is_free(w)
    print(f"free={report.is_free} min_gram_det={report.min_gram_det:.6e} "
          f"({report.reason})")
    return 0


_DISPATCH = {
    "pullback": _cmd_pullback,
    "decompose": _cmd_decompose,
    "frame": _cmd_frame,
    "stage": _cmd_stage,
    "run": _cmd_run,
    "flow": _cmd_flow,
    "smooth-bench": _cmd_smooth_bench,
    "free-check": _cmd_free_check,
}


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        return _DISPATCH[config.command](config.params)
    except CorrugateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse usage failures already print a diagnostic and use code 2
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
