"""One workload in one process: set-up, timed batches, a result file.

``run.py`` starts this script with PYTHONPATH pointing at the checkout's
``src`` and the BLAS thread count set.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before the start, so set-up time covers
interpreter start, imports and the workload's own builds.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

# batches a measuring run makes at least: the first, which also pays for
# first-touch memory and lazy imports, is a warm-up and is not timed, and
# two more let the checks across batches run
MIN_BATCHES = 3
# reference loops in each of the two samples around set-up
SETUP_REPEATS = 9


def blas_info(np):
    """BLAS name, version and its thread count as the library reports it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "blas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--batches", type=int, help=f"at least this many (default {MIN_BATCHES})")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import numpy as np
    import scipy
    import polyheat

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(polyheat.__file__).resolve().parent != src / "polyheat":
        sys.exit(f"polyheat was imported from {polyheat.__file__}, not from the checkout")
    from pace import Pace
    from workloads import WORKLOADS, Batch, WrongOutput

    # the reference loop runs after the imports and after the workload's own
    # set-up, more often than between calls, since set-up has two samples
    # only; its time is not part of set-up
    pace = Pace()
    pace.sample(SETUP_REPEATS)
    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    setup_end = time.perf_counter()
    setup_raw_s = time.monotonic() - args.spawned_at - pace.spent
    pace.sample(SETUP_REPEATS)
    result = {"setup_raw_s": setup_raw_s,
              "setup_s": setup_raw_s * pace.scale(pace.samples[0][0], setup_end)}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()

    # Batches follow each other until the next one, taking as long as the
    # last, would end after --seconds.
    least = args.batches or MIN_BATCHES
    batches = []
    wrong = None
    start = time.perf_counter()
    last = 0.0
    try:
        while len(batches) < least or time.perf_counter() - start + last <= args.seconds:
            began = time.perf_counter()
            batches.append(Batch(pace, tracer=tracer))
            workload.run(batches[-1])
            last = time.perf_counter() - began
    except WrongOutput as e:
        wrong = str(e)
        batches = batches[:-1] or batches
    pace.sample()
    first = batches[0]
    for b in batches[1:]:
        if ([(o.name, o.failure) for o in b.ops] != [(o.name, o.failure) for o in first.ops]
                or [c[0] for c in b.calls] != [c[0] for c in first.calls]):
            wrong = wrong or "operation outcomes differ between batches of one run"
        if b.reports != first.reports:
            wrong = wrong or "reports differ between batches of one run (same config and seed)"

    # each call in reference seconds (pace.py), then per batch, leaving out
    # the warm-up batch when there are others
    measured = batches[1:] or batches
    calls = [[s * pace.scale(t0, t1) for _, s, t0, t1 in b.calls] for b in measured]
    result.update({
        "wrong": wrong,
        "batch_walls": [sum(c) for c in calls],
        "batch_raw_walls": [sum(c[1] for c in b.calls) for b in measured],
        "calls": [s for c in calls for s in c],
        "raw_calls": [[c[1:] for c in b.calls] for b in batches],
        "pace_samples": pace.samples,
        "ops": [[o.name, o.failure] for b in batches for o in b.ops],
        "pairs": first.pairs,
        "reports": first.reports,
        "notes": first.notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": {
            "seed": args.seed,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            **blas_info(np),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    })
    result["wall_s"] = median(result["batch_walls"])
    result["wall_raw_s"] = median(result["batch_raw_walls"])
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["self_times"] = {k: list(v) for k, v in tracer.self_times().items()}
        tracer.write_spans(workdir / "spans.jsonl")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
