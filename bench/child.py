"""One benchmark process: set up a workload, optionally solve it once, and
print one JSON record as the last line of standard output.

    python3 bench/child.py <workload> <seed> <mode> <spawn_time> <size> <workdir>

``mode`` is ``setup`` (stop once the inputs are ready), ``solve`` (one
untraced solve) or ``trace`` (one solve under the layer tracer).
``spawn_time`` is the parent's ``time.monotonic()`` reading just before it
started this process, so ``setup_s`` covers interpreter start-up, imports
and input construction. ``size`` is ``full`` or ``tiny``.

Exit code 0 means the record was printed; 3 means set-up failed (for
example the package under test is missing), and nothing is printed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def environment() -> dict:
    """Versions and thread settings the measurement depends on."""
    import numpy as np

    import corrugate

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "corrugate": corrugate.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "CORRUGATE_THREADS")},
    }


def main(argv) -> int:
    workload, seed, mode, spawn, size, workdir = argv
    root = Path(__file__).resolve().parent.parent
    try:
        import corrugate
        if not Path(corrugate.__file__).resolve().is_relative_to(root / "src"):
            raise ImportError(f"corrugate imported from {corrugate.__file__}, "
                              f"not from {root / 'src'}")
        import workloads
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = workloads.draw_inputs(workload, int(seed), tiny=(size == "tiny"))
        prepared = workloads.prepare(workload, inputs, workdir)
    except Exception as exc:  # report why set-up failed, print no record
        print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    setup_wall = time.monotonic() - float(spawn)
    import calib
    setup_chunks = calib.after_setup()
    record = {"setup_wall_s": setup_wall,
              "setup_s": setup_wall * calib.factor(setup_chunks),
              "setup_chunk_ms": 1e3 * statistics.fmean(setup_chunks), "inputs": inputs}
    if mode == "setup":
        record["env"] = environment()
    else:
        tracer = None
        if mode == "trace":
            import layers
            tracer = layers.new_tracer().install()
            tracer.active = True
        with calib.Sampler() as sampler:
            start = time.perf_counter()
            outcome = workloads.solve(workload, inputs, prepared)
            wall = time.perf_counter() - start
        # a solve too short for the timer to fire is scaled as set-up was
        chunks = sampler.samples or setup_chunks
        scale = calib.factor(chunks)
        record["solve_wall_s"] = wall
        record["solve_s"] = (wall - sum(sampler.samples)) * scale
        record["solve_chunk_ms"] = 1e3 * statistics.fmean(chunks)
        record["solve_chunks"] = len(sampler.samples)
        record["outcome"] = vars(outcome)
        record["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
            record["layers"] = layers.layer_metrics(tracer, wall, scale)
            record["tree"] = tracer.root.to_dict()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
