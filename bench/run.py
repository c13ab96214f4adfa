"""Benchmark of corrugate: one workload, measured end to end or per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. Every measurement happens in a fresh single-threaded
child process (``bench/child.py``), one at a time:

* a few set-up-only children measure ``setup_s`` (process start to inputs
  ready), and every solving child adds its own set-up time;
* solving children run one full solve each, with its checks, until
  ``--seconds`` have passed and at least ``MIN_SOLVES`` solves are done;
* with ``--trace 1`` solving children alternate untraced and traced (at
  least one pair), and the per-layer metrics come from the traced ones;
  the tracing overhead is the median traced minus the median untraced
  solve time.

Set-up, solve and layer times are scaled to a reference CPU speed
measured alongside each of them (``calib.py``), because the host's speed
drifts; the unscaled wall times are printed on a ``# wall`` line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record
(environment, inputs, every child's numbers and span trees) goes to
``.bench_out/`` in the checkout. If set-up fails (for example when the
package is missing) or no solve finishes in time, the exit code is 2 and
no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = tuple(w["name"] for w in
                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])

#: set-up-only children per run (solving children add their own sample)
SETUP_SAMPLES = 5

#: fewest untraced solves per run, whatever --seconds says
MIN_SOLVES = 2

#: wall-clock limit of a whole run; a child still running then is killed
#: and its solve counts as failed
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB",
              "nodes_final": "count", "err_ratio": "ratio", "ok_frac": "ratio"}


class RunFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               CORRUGATE_THREADS="1", PYTHONHASHSEED="0")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: str, seed: int, mode: str, size: str,
              timeout: float) -> dict | None:
    """One child process; its record, or None if it timed out."""
    workdir = OUT / "work" / f"{workload}-{os.getpid()}"
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), workload, str(seed), mode,
             repr(spawn), size, str(workdir)],
            env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RunFailed(f"{mode} child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity() -> dict:
    """Commit, when the checkout is a git repository, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """Run the children of one benchmark run and collect their records."""
    start = time.monotonic()

    def child(mode):
        return run_child(workload, seed, mode, size,
                         timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - start)))

    setups = [child("setup") for _ in range(SETUP_SAMPLES)]
    if any(rec is None for rec in setups):
        raise RunFailed("a set-up child timed out")
    solves, traces, timeouts = [], [], 0
    modes = ("solve", "trace") if trace else ("solve",)
    min_solves = 1 if trace else MIN_SOLVES
    while True:
        for mode in modes:
            rec = child(mode)
            if rec is None:
                timeouts += 1
            else:
                (traces if mode == "trace" else solves).append(rec)
        if timeouts or (time.monotonic() - start >= seconds and len(solves) >= min_solves):
            break
    if not solves or (trace and not traces):
        raise RunFailed("no solve finished within the run's time limit")
    return {"setups": setups, "solves": solves, "traces": traces, "timeouts": timeouts}


def summarize(runs: dict, trace: bool) -> dict:
    """The result line: correctness, operation counts and metrics."""
    solved = runs["solves"] + runs["traces"]
    attempted = sum(r["outcome"]["attempted"] for r in solved) + runs["timeouts"]
    failed = sum(r["outcome"]["failed"] for r in solved) + runs["timeouts"]
    attempted = max(attempted, 1)
    if trace:
        per = [r["layers"] for r in runs["traces"]]
        metrics = {key: statistics.median(p[key] for p in per) for key in per[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(r["solve_s"] for r in runs["traces"])
            - statistics.median(r["solve_s"] for r in runs["solves"]))
        units = layers.PER_LAYER
    else:
        untraced = runs["solves"]
        metrics = {
            "setup_s": statistics.median(
                r["setup_s"] for r in runs["setups"] + untraced),
            "solve_s": statistics.median(r["solve_s"] for r in untraced),
            "peak_rss_mib": statistics.median(r["rss_mib"] for r in untraced),
            "nodes_final": statistics.median(
                r["outcome"]["nodes_final"] for r in untraced),
            "err_ratio": max(r["outcome"]["err_ratio"] for r in untraced),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running child before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        runs = measure(args.workload, args.seed, args.seconds, trace)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    result = summarize(runs, trace)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "source": source_identity(),
              "env": runs["setups"][0]["env"], "inputs": runs["setups"][0]["inputs"],
              "result": result, "runs": runs}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for rec in runs["solves"] + runs["traces"]:
        for note in rec["outcome"]["notes"]:
            print(f"# check failed: {note}")
    wall = {key: statistics.median(r[key] for r in recs)
            for key, recs in (("setup_wall_s", runs["setups"]), ("setup_chunk_ms", runs["setups"]),
                              ("solve_wall_s", runs["solves"]), ("solve_chunk_ms", runs["solves"]))}
    print("# wall " + json.dumps(wall))
    print("# env " + json.dumps({**record["source"], **record["env"]}))
    print("# inputs " + json.dumps(record["inputs"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
