"""polyheat benchmark: one workload, its metrics, and correctness checks.

    python3 perfbench/run.py --workload kernel-grid --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in its own process
(``worker.py``) with one BLAS thread.  Times are in reference seconds: raw
seconds scaled by the host's speed at the time, read from a fixed reference
loop (``pace.py``); the raw figures are printed beside them.  Set-up is
measured in several fresh processes (``SETUP_RUNS``), before and after the
measuring one, and reported as their minimum.  ``--trace 0`` prints the
end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs the workload once untraced and once
traced and prints the per-layer metrics, a per-layer self-time table and
the span file path.
The last line of standard output is the JSON result.  Everything a run
writes goes under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up processes per run; on kernel-grid, whose set-up builds three bases
# in about 5 s, only the measuring one, to keep 22 runs a workload in the hour
SETUP_RUNS = {"kernel-grid": 1}
SETUP_RUNS_DEFAULT = 3
DEADLINE_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of the program and benchmark sources, to key report hashes."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polyheat").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_report_hashes(workload, seed, reports):
    """Compare each report with earlier runs of the same code, config and seed."""
    store = HERE / "out" / "report_hashes.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    digest = source_digest()
    mismatches = []
    for label, sha in sorted(reports.items()):
        key = f"{digest[:16]}/{workload}/{label}/seed={seed}"
        if known.setdefault(key, sha) != sha:
            mismatches.append(label)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return mismatches


class Runner:
    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.started = time.monotonic()
        env = dict(os.environ)
        env.pop("POLYHEAT_THREADS", None)   # would be embedded in the reports
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        # one BLAS thread: a second one waits on whichever CPU the host slows
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env

    def worker(self, tag, seconds, *flags):
        """Run worker.py to completion and return its result dictionary."""
        result = self.workdir / f"{tag}.json"
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            fail("out of time before the workload finished")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(seconds),
               "--workdir", str(self.workdir), "--result", str(result),
               "--spawned-at", repr(time.monotonic()), *flags]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=remaining,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            fail(f"{tag} worker exceeded the {DEADLINE_S:g} s budget and was stopped")
        if proc.returncode != 0 or not result.exists():
            sys.stderr.write(proc.stderr)
            fail(f"{tag} worker exited with code {proc.returncode}")
        return json.loads(result.read_text())


def percentile(values, q):
    return quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def summarize_ops(ops):
    """(attempted, failed, raised or refused, failing names) over (name, failure)."""
    failed = sum(1 for _, f in ops if f)
    errors = sum(1 for _, f in ops if f in ("raised", "refused"))
    return len(ops), failed, errors, sorted({f"{name} ({f})" for name, f in ops if f})


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:34s} {value:>16.6g} {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "polyheat" / "__init__.py").is_file():
        fail(f"no polyheat sources under {ROOT / 'src'}; run from a checkout of the repository")
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    workdir = HERE / "out" / args.workload / f"seed-{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(args, workdir)

    if args.trace:
        plain = runner.worker("untraced", 0, "--batches", "1")
        res = runner.worker("traced", 0, "--batches", "1", "--trace")
        setups = [res]
    else:
        # set-ups before and after the measuring process, so that one slow
        # spell of the host does not decide the minimum
        extra = SETUP_RUNS.get(args.workload, SETUP_RUNS_DEFAULT) - 1
        setups = [runner.worker(f"setup{i}", 0, "--setup-only") for i in range(extra // 2)]
        res = runner.worker("measure", args.seconds)
        setups.append(res)
        setups += [runner.worker(f"setup{i}", 0, "--setup-only")
                   for i in range(extra // 2, extra)]

    attempted, failed, errors, failing = summarize_ops(res["ops"])
    fail_frac = failed / attempted
    wrong = res["wrong"] or (plain["wrong"] if args.trace else None)
    if args.trace and plain["reports"] != res["reports"] and not wrong:
        wrong = "the traced run wrote other reports than the untraced run"
    mismatched = check_report_hashes(args.workload, args.seed, res["reports"])
    if mismatched and not wrong:
        wrong = f"reports differ from an earlier run of the same code and seed: {mismatched}"
    if wrong:
        print(f"perfbench: wrong output: {wrong}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": errors,
                          "metrics": {}}))
        return 1

    env = res["environment"]
    print(f"workload {args.workload}  seed {args.seed}  nproc {env['nproc']}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"BLAS {env['blas']} with {env['blas_threads']} threads")
    print(f"operations {attempted}: {failed} failing "
          f"(fail_frac {fail_frac:.6g}), {errors} of them raised or refused")
    for name in failing:
        print(f"  failing: {name}")
    for label, sha in sorted(res["reports"].items()):
        print(f"  report {label} sha256 {sha}")
    for key, value in sorted(res["notes"].items()):
        print(f"  check {key}: {value}")

    values = {}
    if args.trace:
        values.update(res["trace"])
        values["trace.overhead_frac"] = res["wall_s"] / plain["wall_s"] - 1.0
        # spans are in plain seconds, so the shares are of the raw batch time
        wall = res["wall_raw_s"]
        print(f"self time per layer (traced batch {wall:.4f} s; in reference seconds "
              f"{res['wall_s']:.4f} traced, {plain['wall_s']:.4f} untraced)")
        for layer, (spans, secs) in sorted(res["self_times"].items(), key=lambda kv: -kv[1][1]):
            print(f"  {layer:12s} {spans:8d} spans {secs:10.4f} s {100 * secs / wall:6.1f} %")
        print(f"spans: {(workdir / 'spans.jsonl').relative_to(ROOT)}")
        wanted = spec["per_layer"]
    else:
        calls_ms = [1e3 * s for s in res["calls"]]
        values.update({
            "setup_s": min(s["setup_s"] for s in setups),
            "wall_s": res["wall_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        })
        # raw seconds, and figures that can read 0 or exist on one workload
        # only: in the table and result.json, not in the JSON line
        extra = [("wall_raw_s", res["wall_raw_s"], "s"),
                 ("setup_raw_s", min(s["setup_raw_s"] for s in setups), "s"),
                 ("call_p50_ms", percentile(calls_ms, 50), "ms"),
                 ("call_p90_ms", percentile(calls_ms, 90), "ms"),
                 ("fail_frac", fail_frac, "ratio")]
        if res["pairs"]:
            extra.append(("kernel_pairs_per_s", res["pairs"] / res["wall_s"], "1/s"))
        print_table(f"end to end ({len(res['batch_walls'])} timed batches after a warm-up, "
                    f"{len(calls_ms)} calls, {len(setups)} set-ups)",
                    [(m["name"], values[m["name"]], m["unit"]) for m in spec["end_to_end"]]
                    + extra)
        values.update((name, value) for name, value, _ in extra)
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "setups_s": [s["setup_s"] for s in setups], "failing": failing,
               "values": values, "worker": res}
    (workdir / "result.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": errors,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
