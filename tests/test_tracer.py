"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` wraps package functions by name, so renaming or
deleting one of them breaks ``perfbench/run.py --trace 1``. The tracer
rebinds module attributes for good, so it is installed in a child
process, never in the process that runs the other tests, and the child
writes no bytecode next to the benchmark's files.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import circulant3

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

CHILD = """
import importlib.util
import json
import sys

spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

# install() wraps in every module of TRACED, so all of them are loaded first
from circulant3 import boundary, cli, eigen, tables
from circulant3.tensor import make_tensor

recorder = tracer.Tracer()
recorder.install()
unresolved = [
    f"{short}.{name}"
    for short, names in tracer.TRACED.items()
    for name in names
    if not hasattr(getattr(sys.modules[f"circulant3.{short}"], name), "__wrapped__")
]
boundary.analyze(6, 5, -1, with_certificate=False)
eigen.lambda_min(make_tensor(6, 0, 1, 0))
table = tracer.layer_table(recorder.spans)
print(json.dumps({"unresolved": unresolved,
                  "calls": {k: v["calls"] for k, v in table.items() if "calls" in v}}))
"""


def test_tracer_wraps_every_traced_function_and_builds_the_layer_table():
    src = str(Path(circulant3.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(TRACER)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["unresolved"] == []
    calls = doc["calls"]
    assert calls["boundary.n_value"] == 1
    # lambda_min runs once in analyze's u0 breakpoint check, on the tensor
    # at its linear threshold, and once on its own
    assert calls["eigen.lambda_min"] == calls["kernels.minimize_batch"] == 2
    for name in ("kernels.scan_two_equal", "sos.is_sos", "sos.build_gram_problem",
                 "sdp.solve", "sdp.check_certificate"):
        assert calls[name] >= 1, name
