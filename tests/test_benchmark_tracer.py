"""The benchmark's span tracer still installs on the package.

``perfbench/tracer.py`` wraps package functions and ``CayleyTable`` members
by name, the whole-table ``conj``, ``orders`` and ``derived_idx`` included,
which only the brute-force oracles use.  Removing or renaming any wrapped
name breaks every traced benchmark run, so these tests check that every
wrapped name resolves, and install the tracer in a fresh interpreter to
trace one Hall-family verdict (which builds no Cayley table) and one oracle
comparison (which does).
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys

from metasum.core import CayleyTable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracer
from metasum import cli
spans = tracer.Tracer()
tracer.install(spans)
names = lambda: sorted({span[2] for span in spans.spans})
code = cli.main(["verify", "-m", "8", "-s", "2", "-t", "2", "-r", "5", "--family", "hall"])
verify_spans = names()
oracle_code = cli.main(["oracle", "-m", "8", "-s", "2", "-t", "2", "-r", "5"])
print(json.dumps({"codes": [code, oracle_code], "verify": verify_spans, "all": names()}))
"""


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.FUNCTIONS.items():
        mod = importlib.import_module(f"metasum.{module}")
        for name in names:
            assert callable(getattr(mod, name)), f"{module}.{name}"
    for name in tracer.TABLE_METHODS:
        assert callable(getattr(CayleyTable, name)), name
    for name in tracer.TABLE_PROPERTIES:
        assert isinstance(CayleyTable.__dict__[name], functools.cached_property), name


def test_tracer_installs_and_traces_a_hall_verdict():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.dirname(TRACER), os.path.join(ROOT, "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert {
        "cli.main",
        "hall.build_hall_family",
        "hall.hall_decomposition",
        "families.transversal",
        "families.is_regular",
    } <= set(result["verify"])
    assert "core.cayley_table" not in result["verify"]
    assert "lattice.smith_normal_form" not in result["verify"]
    assert "core.cayley_table" in result["all"]
