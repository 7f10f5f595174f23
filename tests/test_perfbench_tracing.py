"""The traced benchmark run: every name it wraps exists, and a traced run finishes.

``perfbench/tracing.py`` wraps polyheat functions by module and attribute
name, so a rename in the package breaks only the traced run.  This test
reads perfbench and changes nothing in it.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import polyheat

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TRACED_RUN = """
import io, json, sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from polyheat import cli

out = Path(sys.argv[2])
cfg = out / "run.ini"
cfg.write_text("[domain]\\nkind = interval\\nalpha = -0.5\\nbeta = -0.5\\n"
               "[basis]\\nmax_degree = 24\\n[grids]\\npoints = 8\\n[run]\\nseed = 11\\n")
tracer = Tracer().install()
with redirect_stdout(io.StringIO()):
    code = tracer.call("validate", cli.main,
                       ["--config", str(cfg), "validate", "all", "--out", str(out)])
metrics = tracer.metrics()
print(json.dumps({"code": code, "spans": len(tracer.spans),
                  "suites": sum(metrics[f"cli.suite.{s}_s"] > 0 for s in
                                ("ops", "basis", "kernel", "gauss", "doubling", "green",
                                 "flux", "chart", "correspondence", "localize", "fsp"))}))
"""


def _targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing").TARGETS
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("tracing", "workloads", "pace"):
            sys.modules.pop(name, None)


def test_targets_resolve_and_a_traced_validate_all_finishes(tmp_path):
    missing = []
    for modname, path, *_ in _targets():
        owner = importlib.import_module(f"polyheat.{modname}")
        *cls, attr = path.split(".")
        if cls:
            # Tracer.install reads class attributes through __dict__
            klass = getattr(owner, cls[0], None)
            found = klass is not None and attr in vars(klass)
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"polyheat.{modname}.{path}")
    assert missing == []

    src = str(Path(polyheat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", TRACED_RUN, str(PERFBENCH), str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["code"] in (0, 1) and result["spans"] > 0
    assert result["suites"] == 11
    assert (tmp_path / "validate_all.json").exists()
