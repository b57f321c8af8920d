#!/usr/bin/env python3
"""Print one sha256 of standard output per byte-identity gate of the CLI.

The gates are the outputs a refactor must leave byte for byte as they are:

* ``scan --max-order 48`` in every ``--output``/``--family`` combination;
* ``scan --max-order 100 --output json`` under auto, hall and theorem3;
* ``verify --output json`` on the ten benchmark verify tuples and D_81;
* ``present`` and ``oracle`` (text and json) on D_81 and the negative
  control (8,2,2,5).

Each line reads ``<sha256>  exit <code>  <arguments>``.  Run it in two
checkouts and diff the outputs:

    python3 scripts/output_digests.py > digests.txt

It imports ``metasum`` from the ``src`` directory next to this script, so
it always measures the checkout it lives in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from metasum.cli import main  # noqa: E402  (after the path set-up above)

# The six verify-large-family and four verify-large-order benchmark tuples.
VERIFY_TUPLES = (
    (39, 2, 0, 38),
    (41, 2, 0, 40),
    (43, 2, 0, 42),
    (43, 3, 0, 6),
    (39, 4, 0, 5),
    (78, 2, 39, 77),
    (3000, 1, 0, 1),
    (1500, 2, 0, 1),
    (750, 4, 0, 1),
    (1500, 2, 0, 751),
)
DIHEDRAL_81 = (81, 2, 0, 80)
NEGATIVE_CONTROL = (8, 2, 2, 5)


def _params(q: tuple[int, int, int, int]) -> list[str]:
    return ["-m", str(q[0]), "-s", str(q[1]), "-t", str(q[2]), "-r", str(q[3])]


def gates() -> list[list[str]]:
    out = []
    for family in ("auto", "theorem3", "hall"):
        for output in ("text", "json", "csv"):
            out.append(["scan", "--max-order", "48", "--family", family, "--output", output])
    for family in ("auto", "hall", "theorem3"):
        out.append(["scan", "--max-order", "100", "--family", family, "--output", "json"])
    for q in VERIFY_TUPLES + (DIHEDRAL_81,):
        out.append(["verify", *_params(q), "--output", "json"])
    for command in ("present", "oracle"):
        for q in (DIHEDRAL_81, NEGATIVE_CONTROL):
            for output in ("text", "json"):
                out.append([command, *_params(q), "--output", output])
    return out


def digest(argv: list[str]) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), code


if __name__ == "__main__":
    for argv in gates():
        sha, code = digest(argv)
        print(f"{sha}  exit {code}  {' '.join(argv)}", flush=True)
