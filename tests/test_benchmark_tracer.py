"""The benchmark's span tracer still installs on the package.

``perfbench/tracer.py`` wraps package functions and ``CayleyTable`` members
by name, the whole-table ``conj``, ``orders`` and ``derived_idx`` included,
which only the brute-force oracles use.  Removing or renaming any wrapped
name breaks every traced benchmark run, so this test installs the tracer in
a fresh interpreter and traces one Hall-family verdict.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracer
from metasum import cli
spans = tracer.Tracer()
tracer.install(spans)
code = cli.main(["verify", "-m", "8", "-s", "2", "-t", "2", "-r", "5", "--family", "hall"])
print(json.dumps({"code": code, "spans": sorted({span[2] for span in spans.spans})}))
"""


def test_tracer_installs_and_traces_a_hall_verdict():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert {
        "cli.main",
        "hall.build_hall_family",
        "hall.hall_decomposition",
        "families.transversal",
        "families.is_regular",
        "core.cayley_table",
    } <= set(result["spans"])
