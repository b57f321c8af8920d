"""The scripts under ``scripts/`` still run against the package."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SHOWCASE_HEADERS = [
    "=== symmetric group deg 3: m=3 s=2 t=0 r=2 (|G| = 6) ===",
    "=== quaternion group: m=4 s=2 t=2 r=3 (|G| = 8) ===",
    "=== dicyclic group of order 12: m=6 s=2 t=3 r=5 (|G| = 12) ===",
    "=== negative control (order 16): m=8 s=2 t=2 r=5 (|G| = 16) ===",
    "=== split order 24 with both primes: m=12 s=2 t=6 r=7 (|G| = 24) ===",
    "=== coincident generators (order 5): m=5 s=1 t=2 r=1 (|G| = 5) ===",
]


@pytest.mark.parametrize("family", ["auto", "theorem3"])
def test_show_examples_runs(family):
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "show_examples.py"), "--family", family],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("===")] == SHOWCASE_HEADERS
    assert "family generators: (0,1) (1,0) (1,1) (2,1)" in lines  # S3 under either mode


def test_structure_digest_to_order_24():
    """Both lines of ``structure_digest.py`` at a small order, frozen."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "structure_digest.py"), "24"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "f5456e6661120fe3d8cf5e41c908fb46fa14a9286f7f3e8d018011150cbfe498  hall  order<=24",
        "5bde84b2494b3946fc6e10b16c470205021481b9538bf553928be1f6754bc1b2  transversals  order<=24",
    ]
