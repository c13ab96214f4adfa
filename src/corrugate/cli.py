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

from . import corrugation, fieldio
from .corrugation import StageReport, run_stage
from .decompose import global_decompose
from .driver import IterationSchedule, RunReport, nash_kuiper_iterate
from .errors import CorrugateError, InputError
from .flow import FlowConfig, FlowSample, run_flow
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
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not JSON: {exc}") from None
        if not (isinstance(data, dict) and isinstance(data.get("command"), str)
                and isinstance(data.get("params", {}), dict)):
            raise InputError('config must be {"command": <name>, "params": {...}}')
        extra = set(data) - {"command", "params"}
        if extra:
            raise InputError(f"unknown config keys: {sorted(extra)}")
        return cls(command=data["command"], params=dict(data.get("params", {})))


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
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
    return parser, sub.choices


def _config_argv(commands: dict, config: RunConfig) -> list[str]:
    """The command line that sets a config file's params through the parser.

    A key is an option's destination; an omitted key takes the option's
    default, and a null value is omitted.
    """
    sub = commands.get(config.command)
    if sub is None:
        raise InputError(f"unknown subcommand {config.command!r}")
    options = {a.dest: a.option_strings[0] for a in sub._actions
               if a.option_strings and a.dest != "help"}
    extra = set(config.params) - set(options)
    if extra:
        raise InputError(f"unknown keys for {config.command}: {sorted(extra)}")
    return [config.command] + [f"{options[key]}={value}"
                               for key, value in config.params.items() if value is not None]


def _validate(config: RunConfig) -> RunConfig:
    p = config.params
    for key, low in (("stages", 0), ("resolution", 1), ("bumps", 1)):
        if key in p and p[key] < low:
            raise InputError(f"{key} must be at least {low}, got {p[key]}")
    if config.command == "run":
        nodes = p["resolution"] ** (2 if p["manifold"] == "torus" else 1)
        if nodes > corrugation.MAX_NODES:
            raise InputError(f"resolution {p['resolution']} gives a start grid of {nodes} "
                             f"nodes, beyond the desk-scale cap of "
                             f"{corrugation.MAX_NODES} nodes")
    return config


def parse_config(argv=None) -> RunConfig:
    """Parse CLI arguments, or the JSON file ``--config`` names, into a validated RunConfig.

    A config file's params go through the same parser as the flags, and
    each given value must be the one the parser makes of its text.
    """
    parser, commands = _build_parser()
    ns = parser.parse_args(argv)
    given = {}
    if ns.config is not None:
        with open(ns.config) as fh:
            config = RunConfig.from_json(fh.read())
        ns = parser.parse_args(_config_argv(commands, config))
        given = config.params
    if ns.command is None:
        raise InputError("a subcommand is required (see --help)")
    params = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    for key, value in given.items():
        if params[key] != value:
            raise InputError(f"{ns.command} {key}: expected "
                             f"{type(params[key]).__name__}, got {value!r}")
    return _validate(RunConfig(command=ns.command, params=params))


def emit_report(report, path):
    """Write the ``csv_rows()`` table of a stage report, run report or flow diagnostics."""
    rows = report.csv_rows()
    fieldio.write_table(rows[0], rows[1:], path)


#: report kind -> reader of its table's data rows (the flow's is a list of FlowSample)
_REPORT_PARSERS = {
    "stage": lambda rows: StageReport.from_csv_row(rows[0]),
    "run": RunReport.from_csv_rows,
    "flow": lambda rows: [FlowSample(*[float(v) for v in row]) for row in rows],
}


def parse_report(path, kind):
    """Read a table ``emit_report`` wrote, as ``_REPORT_PARSERS[kind]`` does."""
    parser = _REPORT_PARSERS.get(kind)
    if parser is None:
        raise InputError(f"unknown report kind {kind!r}")
    return parser(fieldio.read_table(path)[1])


def _solve_and_record(solve, prefix: str, record: str):
    """Run ``solve()``; write its report to <prefix>_<record>.csv, its map to <prefix>_final.csv.
    An aborted run writes the partial report its error carries, if it has a row, and re-raises."""
    path = f"{prefix}_{record}.csv"
    try:
        u, report = solve()
    except CorrugateError as exc:
        if exc.partial_report is not None and len(exc.partial_report.csv_rows()) > 1:
            emit_report(exc.partial_report, path)
        raise
    emit_report(report, path)
    fieldio.write_field(u, f"{prefix}_final.csv")
    return u, report


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
    u, report = _solve_and_record(lambda: nash_kuiper_iterate(v0, g, sched), prefix, "report")
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
    _, diag = _solve_and_record(lambda: run_flow(w0, h, cfg), p["out_prefix"], "diagnostics")
    print(f"final identity residual {diag.final_resid:.6g} over "
          f"{len(diag.samples)} steps")
    return 0


def _cmd_smooth_bench(p):
    grid = PeriodicGrid((p["resolution"],))
    T = calibration_field(grid)
    try:
        pairs = [(int(r), int(s)) for r, s in
                 (pair.split(",") for pair in p["pairs"].split(";") if pair)]
        eps_grid = ([float(v) for v in p["eps"].split(",")] if p["eps"]
                    else [2.0 ** (-j) for j in range(1, 7)])
        if any(order < 0 for pair in pairs for order in pair):
            raise ValueError("negative derivative order")
    except ValueError:
        raise InputError(f"smooth-bench needs --pairs 'r,s;...' of nonnegative integers and "
                         f"--eps of numbers, got {p['pairs']!r} and {p['eps']!r}") from None
    records = estimate_bench(T, pairs, eps_grid)
    rows = [[rec["family"], rec["r"], rec["s"], rec["max_ratio"]] for rec in records]
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
