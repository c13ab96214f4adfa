"""Per-layer metrics: the count hooks the tracer runs at layer boundaries,
and the reduction of one traced solve into the named per-layer metrics.

Counts are taken from the arguments and results of public functions only,
so they mean the same thing however a layer is implemented inside.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

from tracer import LAYERS, Tracer

MB = 1e6


def _nodes_of(field) -> int:
    return int(field.grid.num_nodes)


def _field_bytes(field) -> int:
    for attr in ("periodic", "comps", "values"):
        arr = getattr(field, attr, None)
        if arr is not None and hasattr(arr, "nbytes"):
            return int(arr.nbytes)
    return 0


def _count(key):
    return SimpleNamespace(exit=lambda t, node, args, kwargs, result: t.add(key))


def _frame_exit(t, node, args, kwargs, result):
    t.add("frame.calls")
    t.add("frame.nodes", _nodes_of(args[0]))


def _resample_exit(t, node, args, kwargs, result):
    if result is not args[0]:
        t.add("grid.resample_mb", _field_bytes(result) / MB)


def _search_enter(t, node, args, kwargs):
    t.state["search_shape"] = args[0].grid.shape


def _search_exit(t, node, args, kwargs, result):
    t.add("corrugation.accepted")


def _check_exit(t, node, args, kwargs, result):
    if node.parent.name != "corrugation.choose_lambda":
        return
    shape = args[0].grid.shape
    t.add("corrugation.trials")
    t.add("corrugation.trial_nodes", _nodes_of(args[0]))
    if shape != t.state.get("search_shape"):
        t.add("corrugation.refinements")
        t.state["search_shape"] = shape


def _stage_exit(t, node, args, kwargs, result):
    if node.parent.name == "driver.nash_kuiper_iterate":
        t.add("driver.stages")


def _flow_exit(t, node, args, kwargs, result):
    t.add("flow.steps", len(result[1].samples))


def _write_exit(t, node, args, kwargs, result):
    path = args[-1] if args else None
    if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
        t.add("fieldio.write_mb", os.path.getsize(path) / MB)


HOOKS = {
    "frame.normal_pair": SimpleNamespace(exit=_frame_exit),
    "grid.resample": SimpleNamespace(exit=_resample_exit),
    "corrugation.choose_lambda": SimpleNamespace(enter=_search_enter, exit=_search_exit),
    "corrugation.check_stage_estimates": SimpleNamespace(exit=_check_exit),
    "corrugation.run_stage": SimpleNamespace(exit=_stage_exit),
    "flow.run_flow": SimpleNamespace(exit=_flow_exit),
    "flow.flow_rhs": _count("flow.rhs_evals"),
    "flow.eval_h": _count("flow.h_evals"),
    "flow.eval_hdot": _count("flow.h_evals"),
    "leastnorm.apply_L": _count("leastnorm.solves"),
    "leastnorm.least_norm_solve": _count("leastnorm.solves"),
    "leastnorm.is_free": _count("leastnorm.free_checks"),
    "smoothing.smooth": _count("smoothing.calls"),
    "smoothing.smooth_eps_derivative": _count("smoothing.calls"),
    "decompose.global_decompose": SimpleNamespace(
        exit=lambda t, node, args, kwargs, result: t.add("decompose.primitives", len(result))),
}
for _name in ("write_field", "write_frame", "write_primitives", "write_table", "export_obj"):
    HOOKS[f"fieldio.{_name}"] = SimpleNamespace(exit=_write_exit)

#: per-layer metric name -> unit, in report order
PER_LAYER = {
    "frame.self_s": "s", "frame.calls": "count", "frame.nodes": "count",
    "grid.self_s": "s", "grid.fft_calls": "count", "grid.resample_s": "s",
    "grid.resample_mb": "MB",
    "corrugation.self_s": "s", "corrugation.check_s": "s",
    "corrugation.trials": "count", "corrugation.accept_ratio": "ratio",
    "corrugation.trial_nodes": "count", "corrugation.refinements": "count",
    "flow.self_s": "s", "flow.quadrature_s": "s", "flow.steps": "count",
    "flow.rhs_evals": "count", "flow.h_evals": "count",
    "leastnorm.self_s": "s", "leastnorm.solves": "count",
    "leastnorm.free_checks": "count",
    "smoothing.self_s": "s", "smoothing.calls": "count",
    "decompose.self_s": "s", "decompose.primitives": "count",
    "driver.self_s": "s", "driver.stages": "count",
    "fieldio.self_s": "s", "fieldio.write_mb": "MB",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}


def new_tracer() -> Tracer:
    return Tracer(hooks=HOOKS)


def _inclusive(tracer: Tracer, name: str) -> float:
    """Time under calls of ``name``, not double counting nested calls."""
    return sum((n.total for n in tracer.nodes(name) if not _has_ancestor(n, name)), 0.0)


def _has_ancestor(node, name: str) -> bool:
    node = node.parent
    while node is not None:
        if node.name == name:
            return True
        node = node.parent
    return False


def _quadrature_self(tracer: Tracer) -> float:
    """Flow-layer self time inside eval_h / eval_hdot spans (the memory
    window quadrature and the ramp weights it evaluates)."""
    total = 0.0
    for top in tracer.nodes("flow.eval_h") + tracer.nodes("flow.eval_hdot"):
        total += sum(n.self_time for n in top.walk() if n.layer == "flow")
    return total


def layer_metrics(tracer: Tracer, solve_s: float, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced solve that took ``solve_s`` seconds
    of wall time. Times are multiplied by ``scale``, the solve's factor to
    the reference CPU speed (``calib.py``).

    ``trace.overhead_s`` needs an untraced solve and is filled in later.
    """
    selfs = tracer.layer_self_times()
    counts = tracer.counts
    out = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    for key in PER_LAYER:
        if key not in out and not key.startswith("trace."):
            out[key] = float(counts.get(key, 0))
    out["grid.resample_s"] = _inclusive(tracer, "grid.resample")
    out["corrugation.check_s"] = _inclusive(tracer, "corrugation.check_stage_estimates")
    trials = counts.get("corrugation.trials", 0)
    out["corrugation.accept_ratio"] = (
        counts.get("corrugation.accepted", 0) / trials if trials else 0.0)
    out["flow.quadrature_s"] = _quadrature_self(tracer)
    out["trace.coverage"] = sum(selfs.values()) / solve_s if solve_s > 0 else 0.0
    return {key: out[key] * scale if PER_LAYER[key] == "s" else out[key]
            for key in PER_LAYER if key in out}
