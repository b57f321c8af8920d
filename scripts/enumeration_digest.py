#!/usr/bin/env python3
"""Print one sha256 per family mode over every verdict coset enumeration.

For each tuple of order at most 100 (9,201 tuples) the verdict presentation
of its ``theorem3`` or ``hall`` family is enumerated over <x_F>, F the member
of largest order, exactly as ``metasum.active_sum.todd_coxeter`` does, at the
default limit of 10 x |G| live cosets.  Each enumeration contributes its
index (None on a limit hit), the rows it defined and the cosets left live.
A change to the enumerator that keeps these three numbers for every tuple
keeps the enumeration step for step as far as the verdict can see.  Run it
in two checkouts and diff the outputs:

    python3 scripts/enumeration_digest.py > enumeration.txt

Each line reads ``<sha256>  <family>  order<=<max order>``.  It imports
``metasum`` from the ``src`` directory next to this script, so it always
measures the checkout it lives in.  ``tests/test_coset.py`` freezes the same
digest at order <= 32 under more limits.
"""

from __future__ import annotations

import hashlib
import os
import sys
from typing import Callable, Iterable

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from metasum.active_sum import DEFAULT_COSET_FACTOR, FpPresentation, build_active_sum_presentation  # noqa: E402
from metasum.cli import build_family, valid_tuples  # noqa: E402
from metasum.coset import CosetTable  # noqa: E402
from metasum.errors import CosetLimitExceeded  # noqa: E402

MODES = ("theorem3", "hall")


def default_limits(order: int) -> tuple[int, ...]:
    """The verdict's own limit on a group of this order."""
    return (DEFAULT_COSET_FACTOR * order,)


def enumeration_record(pres: FpPresentation, limit: int) -> tuple[int | None, int, int]:
    """(index or None on a limit hit, rows defined, live cosets) of the
    enumeration over <x_F> that the verdict runs on ``pres``."""
    subgroup: tuple[tuple[int, ...], ...] = ()
    if pres.generators:
        f = max(range(pres.ngens), key=lambda i: pres.generators[i].order)
        subgroup = ((f + 1,),)
    table = CosetTable(pres.ngens, pres.relators, limit, subgroup)
    try:
        index: int | None = table.enumerate()
    except CosetLimitExceeded:
        index = None
    return index, len(table.table), table.nlive


def enumeration_digest(
    max_order: int, mode: str, limits: Callable[[int], Iterable[int]] = default_limits
) -> str:
    """sha256 of the records of every verdict presentation of order at most
    ``max_order`` under family ``mode``, at each of ``limits(|G|)``."""
    h = hashlib.sha256()
    for p in valid_tuples(max_order):
        family = build_family(p, mode)
        pres = build_active_sum_presentation(p, family, family.acting[0])
        for limit in limits(p.order):
            h.update(repr(((p.m, p.s, p.t, p.r), limit, enumeration_record(pres, limit))).encode())
    return h.hexdigest()


if __name__ == "__main__":
    for mode in MODES:
        print(f"{enumeration_digest(100, mode)}  {mode}  order<=100", flush=True)
