"""The benchmark tracer still instruments the package.

Instrumenting rebinds module globals, so the traced run happens in a child
interpreter.  A change that renames a name the tracer wraps fails here.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = r"""
import json
import sys

sys.path.insert(0, sys.argv[1])
import tracer
from geodexp import suites
from geodexp.config import default_config

config = default_config()
plain = suites.CHECKS["A3"](config)
t = tracer.Tracer()
tracer.instrument(t)
runs = []
for _ in range(2):
    t.reset()
    result = suites.CHECKS["A3"](config)
    by_name, _, _ = tracer.summarize(t.spans, t.leaf)
    runs.append({"values": result.values,
                 "counts": {k: [row["calls"], row["note_sum"]] for k, row in by_name.items()}})
print(json.dumps({"plain": plain.values, "runs": runs}))
"""


def test_traced_check_repeats_and_matches_untraced():
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", _CHILD, os.path.join(ROOT, "perfbench")],
                       capture_output=True, text=True, timeout=600,
                       env=dict(os.environ, PYTHONPATH=path))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.splitlines()[-1])
    first, second = out["runs"]
    assert first["counts"] == second["counts"]
    assert first["counts"]["suites.A3"][0] == 1
    assert first["counts"]["manifolds.curvature_at"][0] > 0
    assert first["values"] == second["values"] == out["plain"]
