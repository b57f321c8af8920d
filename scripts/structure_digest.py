#!/usr/bin/env python3
"""Print two sha256s over the structures behind every verdict.

* ``hall``: for each tuple, the ``HallDecomposition`` (primes; H, N, V and U
  with their element keys and generators; eta; every
  ``SylowFactorization``), the build's seeds, and its family's members with
  their components.
* ``transversals``: under ``theorem3`` and ``hall`` for each tuple, the
  family's transversal (representatives, orbit sizes, Schreier generators)
  and every ``RegularityCheck`` of ``is_regular``.

The tuples are ``valid_tuples(N)``, N the optional argument (default 200).
A change that keeps both lines keeps every decomposition, family, orbit and
regularity witness the verdict reads.  Run it in two checkouts and diff the
outputs:

    python3 scripts/structure_digest.py > structure.txt
    python3 scripts/structure_digest.py 100

Each line reads ``<sha256>  <what>  order<=<N>``.  It imports ``metasum``
from the ``src`` directory next to this script, so it always measures the
checkout it lives in.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from metasum.cli import build_family, valid_tuples  # noqa: E402  (after the path set-up above)
from metasum.families import is_regular, transversal  # noqa: E402
from metasum.hall import build_hall_family  # noqa: E402

MODES = ("theorem3", "hall")


def _sub(sub) -> tuple:
    return sub.key, sub.generator


def hall_record(p) -> tuple:
    """Everything ``build_hall_family`` returns for p, as plain tuples."""
    built = build_hall_family(p)
    d = built.decomposition
    sylows = tuple(
        (f.prime, _sub(f.sylow), _sub(f.normal_part), _sub(f.complement_part), f.twist_exponent, f.tail_exponent)
        for f in d.sylow_factorizations
    )
    parts = (d.hall_subgroup, d.normal_complement, d.kernel_part, d.top_part)
    return (
        d.primes,
        tuple(map(_sub, parts)),
        d.twist_exponent,
        sylows,
        tuple(map(_sub, built.seeds)),
        tuple(map(_sub, built.family.subgroups)),
        built.family.components,
    )


def transversal_record(p, mode: str) -> tuple:
    """The transversal and the regularity checks of p's ``mode`` family."""
    family = build_family(p, mode)
    found = transversal(p, family)
    checks = tuple(
        (_sub(c.representative), _sub(c.commutator_side), tuple(sorted(c.intersection_side)))
        for c in is_regular(p, family).checks
    )
    return (
        tuple(map(_sub, found.representatives)),
        found.orbit_sizes,
        found.normalizer_generators,
        checks,
    )


def structure_digests(max_order: int) -> tuple[str, str]:
    """(hall, transversals) sha256s over every tuple of order <= max_order."""
    hall, trans = hashlib.sha256(), hashlib.sha256()
    for p in valid_tuples(max_order):
        q = (p.m, p.s, p.t, p.r)
        hall.update(repr((q, hall_record(p))).encode())
        for mode in MODES:
            trans.update(repr((q, mode, transversal_record(p, mode))).encode())
    return hall.hexdigest(), trans.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("max_order", nargs="?", type=int, default=200)
    n = parser.parse_args().max_order
    for what, sha in zip(("hall", "transversals"), structure_digests(n)):
        print(f"{sha}  {what}  order<={n}", flush=True)
