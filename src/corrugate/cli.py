"""Command-line surface: subcommand dispatch, config handling, reports.

Subcommands: pullback, decompose, frame, stage, run, flow, smooth-bench,
free-check. Exit codes: 0 success, 2 validation error, 3 numerical
nonconvergence, 4 capability error. A run builds the parser of its own
command only; help, usage errors and config files read the full parser.
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
from .flow import FlowConfig, FlowSample, run_flow
from .frame import normal_pair
from .grid import ImmersionField, MetricField, PeriodicGrid, pullback_metric
from .leastnorm import is_free
from .smoothing import calibration_field, estimate_bench


@dataclass
class RunConfig:
    """Parsed invocation: subcommand and typed parameter map."""

    command: str
    params: dict = field(default_factory=dict)

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


def _build_parser(command: str | None = None) -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser with the subparser of ``command`` only, or of every
    subcommand when None; returns it and its subparsers by name."""
    parser = argparse.ArgumentParser(
        prog="corrugate",
        description="corrugation stages and the regularized isometry flow "
                    "on periodic charts")
    parser.add_argument("--config", help="JSON config file replacing CLI flags")
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, options, _) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
    return parser, sub.choices


def _parse(argv: list[str]) -> tuple[argparse.Namespace, dict]:
    """Parse ``argv`` with the parser of the subcommand its first word names
    (every subcommand's if none), since building unused subparsers costs
    more than the parse; leftover words are reported by the full parser."""
    parser, commands = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    ns, extra = parser.parse_known_args(argv)
    if extra:
        parser, commands = _build_parser()
        ns = parser.parse_args(argv)
    return ns, commands


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


def parse_config(argv=None) -> RunConfig:
    """Parse CLI arguments, or the JSON file ``--config`` names, into a RunConfig.

    A config file's params go through the same parser as the flags, and
    each given value must be the one the parser makes of its text. Value
    ranges are checked where the values are used: a grid's resolution and
    node count by the grid, a stage count by its schedule.
    """
    ns, commands = _parse(sys.argv[1:] if argv is None else list(argv))
    given = {}
    if ns.config is not None:
        with open(ns.config) as fh:
            config = RunConfig.from_json(fh.read())
        ns, _ = _parse(_config_argv(commands, config))
        given = config.params
    if ns.command is None:
        raise InputError("a subcommand is required (see --help)")
    params = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    for key, value in given.items():
        if params[key] != value:
            raise InputError(f"{ns.command} {key}: expected "
                             f"{type(params[key]).__name__}, got {value!r}")
    return RunConfig(command=ns.command, params=params)


def emit_report(report, path):
    """Write the ``csv_rows()`` table of a stage report, run report or flow diagnostics."""
    rows = report.csv_rows()
    fieldio.write_table(rows[0], rows[1:], path)


#: report kind -> its table's header, the reader of one data row, and the
#: report built from the rows read (the flow's is a list of FlowSample)
_REPORT_PARSERS = {
    "stage": (StageReport.CSV_HEADER, StageReport.from_csv_row, lambda reports: reports[0]),
    "run": (["stage"] + StageReport.CSV_HEADER, lambda row: StageReport.from_csv_row(row[1:]),
            RunReport.from_stage_reports),
    "flow": (list(FlowSample._fields), lambda row: FlowSample(*map(float, row)), list),
}


def parse_report(path, kind):
    """Read a table ``emit_report`` wrote. InputError for a header other than
    the kind's, a row of another width or with a cell that does not parse,
    run stages not numbered 1, 2, ..., or a stage table without one row."""
    if kind not in _REPORT_PARSERS:
        raise InputError(f"unknown report kind {kind!r}")
    header, read_row, build = _REPORT_PARSERS[kind]
    got, rows = fieldio.read_table(path)
    if got != header:
        raise InputError(f"{kind} report header {','.join(got)!r} != {','.join(header)!r}")
    if kind == "stage" and len(rows) != 1:
        raise InputError(f"a stage report holds one row, {path} has {len(rows)}")
    parsed = []
    for row in rows:
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} cells, not {len(header)}")
            if kind == "run" and row[0] != str(len(parsed) + 1):
                raise ValueError(f"stage {row[0]!r} where stage {len(parsed) + 1} belongs")
            parsed.append(read_row(row))
        except (ValueError, InputError) as exc:
            raise InputError(f"malformed {kind} report row {','.join(row)!r}: {exc}") from None
    return build(parsed)


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
    sched = IterationSchedule(epsilon=p["epsilon"], stages=p["stages"])
    v0 = _builtin_start(p["manifold"], p["resolution"])
    scale = p["target_scale"]
    g = MetricField.identity(v0.grid, scale * scale)
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
    cfg = FlowConfig(t0=p["t0"], t_end=p["tend"], tol=p["tol"],
                     smallness=p["smallness"])
    _, diag = _solve_and_record(lambda: run_flow(w0, h, cfg), p["out_prefix"], "diagnostics")
    print(f"final metric residual {diag.final_resid:.6g} over "
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


#: subcommand -> its help, its options as (flag, add_argument keywords), its handler
_IN, _REQUIRED = {"dest": "in_path", "required": True}, {"required": True}
_COMMANDS = {
    "pullback": ("induced metric of an immersion",
                 [("--in", _IN), ("--out", _REQUIRED)], _cmd_pullback),
    "decompose": ("split an SPD tensor field into primitives",
                  [("--in", _IN), ("--bumps", {"type": int, "default": 1}),
                   ("--out", _REQUIRED)], _cmd_decompose),
    "frame": ("orthonormal normal pair along a codimension-2 immersion",
              [("--in", _IN), ("--out", _REQUIRED)], _cmd_frame),
    "stage": ("one corrugation stage",
              [("--in", _IN), ("--metric", _REQUIRED),
               ("--eta", {"type": float, "required": True}),
               ("--delta", {"type": float, "required": True}),
               ("--out-prefix", _REQUIRED)], _cmd_stage),
    "run": ("iterated stages toward an isometry",
            [("--stages", {"type": int, "default": 4}),
             ("--epsilon", {"type": float, "default": 0.5}),
             ("--resolution", {"type": int, "default": 64}),
             ("--target-scale", {"type": float, "default": 1.5,
                                 "help": "target metric is scale^2 * identity"}),
             ("--manifold", {"choices": ("torus", "circle"), "default": "torus"}),
             ("--out-prefix", _REQUIRED)], _cmd_run),
    "flow": ("regularized isometry flow on the circle",
             [("--t0", {"type": float, "default": 10.0}),
              ("--alpha", {"type": float, "default": None,
                           "help": "constant metric increment alpha * dx^2"}),
              ("--h-file", {"default": None, "help": "metric CSV with the target increment"}),
              ("--tend", {"type": float, "default": None}),
              ("--tol", {"type": float, "default": 1e-3}),
              ("--resolution", {"type": int, "default": 256}),
              ("--smallness", {"type": float, "default": 0.05}),
              ("--out-prefix", _REQUIRED)], _cmd_flow),
    "smooth-bench": ("smoothing estimate constants",
                     [("--resolution", {"type": int, "default": 256}),
                      ("--pairs", {"default": "2,0;3,1;0,2"}),
                      ("--eps", {"default": None,
                                 "help": "comma-separated scales (default 2^-1..2^-6)"}),
                      ("--out", _REQUIRED)], _cmd_smooth_bench),
    "free-check": ("free-map verification", [("--in", _IN)], _cmd_free_check),
}


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        return _COMMANDS[config.command][2](config.params)
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
