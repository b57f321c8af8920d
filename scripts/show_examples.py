#!/usr/bin/env python3
"""Walk a few showcase groups end to end and print what the library sees.

For each example: the parameters, the chosen family, the per-check verdict,
and the finite presentation of the active sum.  Useful as a smoke test and
as a guided tour of the API.

Usage:
    python3 scripts/show_examples.py            # all showcase groups
    python3 scripts/show_examples.py --family theorem3
"""

from __future__ import annotations

import argparse

from metasum.active_sum import build_active_sum_presentation, verdict
from metasum.cli import build_family, resolve_family_mode
from metasum.core import MetacyclicParams, validate
from metasum.families import transversal

SHOWCASE = [
    ("symmetric group deg 3", (3, 2, 0, 2)),
    ("quaternion group", (4, 2, 2, 3)),
    ("dicyclic group of order 12", (6, 2, 3, 5)),
    ("negative control (order 16)", (8, 2, 2, 5)),
    ("split order 24 with both primes", (12, 2, 6, 7)),
    ("coincident generators (order 5)", (5, 1, 2, 1)),
]


def fmt(p: MetacyclicParams, x: int) -> str:
    """The element x = i*s + j as its normal form (i,j)."""
    i, j = divmod(x, p.s)
    return f"({i},{j})"


def show(name: str, tup: tuple[int, int, int, int], family_mode: str) -> None:
    p = validate(*tup)
    mode = resolve_family_mode(p, family_mode)
    family = build_family(p, mode)
    v = verdict(p, family)
    tv = transversal(p, family)

    print(f"=== {name}: m={p.m} s={p.s} t={p.t} r={p.r} (|G| = {p.order}) ===")
    print(f"family mode: {mode}")
    gens = " ".join(fmt(p, sub.generator) for sub in family.subgroups)
    print("family generators:", gens or "(empty)")
    print(
        "transversal:",
        " ".join(fmt(p, rep.generator) for rep in tv.representatives) or "(empty)",
        f"orbit sizes {tv.orbit_sizes}",
    )
    print(
        f"checks: generating={v.generating} regular={v.regular} "
        f"independent={v.independent} ganea={v.ganea_surjective}"
    )
    print(
        f"orders: |G|={v.group_order} |S|={v.active_sum_order} "
        f"ab(S)={v.abelianized_order_s} ab(G)={v.abelianized_order_g}"
    )
    print(f"isomorphic: {v.isomorphic}")
    print("presentation:")
    pres = build_active_sum_presentation(p, family)
    dump = pres.dump()
    print("  " + dump.replace("\n", "\n  ") if dump else "  (empty)")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--family",
        choices=("auto", "theorem3", "hall"),
        default="auto",
        help="family construction to use for every example (default: auto)",
    )
    args = parser.parse_args()
    for name, tup in SHOWCASE:
        show(name, tup, args.family)


if __name__ == "__main__":
    main()
