"""Workload definitions and seeded input generation (standard library only).

Both the orchestrator (``run.py``) and the measuring child (``worker.py``)
import this module, so the tuples a child runs are exactly the tuples the
orchestrator checks.  Nothing here imports ``metasum``: the benchmark defines
its inputs itself and hands the program only the generated tuples.

Work per run is fixed by ``--seconds`` through the calibrated rates below,
not by a deadline.  The same seed and seconds therefore give the same calls
on every commit, so ``wall_s`` measures a fixed amount of work and the
traced and untraced passes of one run can be compared call for call.  The
rates were set so that, at the commit that defined the benchmark (2-core
VM, python 3.11, numpy 2.4), a run's calls take about three quarters of
``--seconds``, which leaves room for set-up and for a slower host; a faster
program finishes sooner.  ``verify-large-family`` is the exception: it makes
two passes, about 1.1 x ``--seconds`` at 20 s (see its entry below).
"""

from __future__ import annotations

import json
import math
import os
import random

SCAN_MAX_ORDER = 100
SCAN_POOL_SIZE = 9201  # valid tuples of order <= 100, as the acceptance suite counts them
SCAN_CENSUS = 4
NEGATIVE_CONTROL = (8, 2, 2, 5)
COSTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scan_costs.json")

# Tuples of order 60-160 whose ``auto`` family has at least 40 members:
# dihedral (k, 2, 0, k-1) for odd k in 39..79, three Frobenius-type groups,
# and one tuple on the Hall route.  |family|**2 relators make the certified
# Smith normal form the dominant cost.
LARGE_FAMILY_POOL = tuple(
    [(k, 2, 0, k - 1) for k in range(39, 80, 2)]
    + [(43, 3, 0, 6), (49, 3, 0, 18), (39, 4, 0, 5), (78, 2, 39, 77)]
)
# The cap actually run.  The SNF cost grows about as |family|**4 (D_41 takes
# 2 s, D_61 10 s, D_81 30 s and 805 MB), so the list stops at 44 members to
# keep one pass of every tuple inside one run.  Six tuples, not five: the
# median of five is one call, and which call sits in the middle moved
# ``tuple_p50_ms`` by 20 % between seeds; the median of six is steadier.
LARGE_FAMILY_CAPPED = (
    (39, 2, 0, 38),
    (41, 2, 0, 40),
    (43, 2, 0, 42),
    (43, 3, 0, 6),
    (39, 4, 0, 5),
    (78, 2, 39, 77),
)

# Order-3000 tuples whose family has at most 4 members: the dense n**2 Cayley
# table and the regularity check on it dominate, the SNF is tiny.  The last
# one is non-abelian (r = 751), with G' = <a**750> of order 2.
LARGE_ORDER_CAPPED = (
    (3000, 1, 0, 1),
    (1500, 2, 0, 1),
    (750, 4, 0, 1),
    (1500, 2, 0, 751),
)

WORKLOADS = {
    "scan-auto": {"kind": "scan", "mode": "auto", "calls_per_s": 72.5},
    "scan-theorem3": {"kind": "scan", "mode": "theorem3", "calls_per_s": 50.0},
    "verify-large-family": {
        "kind": "verify",
        "tuples": LARGE_FAMILY_CAPPED,
        "family_size": (40, 10**9),
        # One pass takes about 11 s.  Two passes per 20 s run, although that
        # overruns the run by a tenth: with one pass the median was the mean
        # of two calls, each of which the host moves by up to +-25 %.
        "pass_s": 10.0,
    },
    "verify-large-order": {
        "kind": "verify",
        "tuples": LARGE_ORDER_CAPPED,
        "family_size": (1, 4),
        "pass_s": 11.0,
    },
}


def valid_tuples(max_order: int) -> list[tuple[int, int, int, int]]:
    """Every (m, s, t, r) with m*s <= max_order satisfying the presentation
    constraints r**s = 1 (mod m) and m | t*(r-1), sorted by (m*s, m, s, t, r)."""
    out = []
    for m in range(1, max_order + 1):
        one = 1 % m
        for s in range(1, max_order // m + 1):
            for r in range(1, m + 1):
                if pow(r, s, m) != one:
                    continue
                out.extend((m, s, t, r) for t in range(m) if t * (r - 1) % m == 0)
    out.sort(key=lambda q: (q[0] * q[1], q[0], q[1], q[2], q[3]))
    return out


def spread_order(n: int, seed: int) -> list[int]:
    """A seeded permutation of range(n) whose every prefix is spread evenly.

    Bit-reversal (van der Corput) order with a random digital shift: the
    first 2**k indices hit each of 2**k equal slices of range(n) about once.
    Over a pool sorted by group order, any prefix therefore holds small and
    large groups in the same proportions, whatever the seed.  That keeps
    per-run medians and throughput steady across seeds, which independent
    uniform draws of a heavy-tailed pool do not.
    """
    bits = max(1, (n - 1).bit_length())
    shift = random.Random(seed).randrange(1 << bits)
    order = []
    for i in range(1 << bits):
        j = int(format(i, f"0{bits}b")[::-1], 2) ^ shift
        if j < n:
            order.append(j)
    return order


def scan_sample(workload: str, seed: int, seconds: int) -> list[tuple[int, int, int, int]]:
    """The tuples one scan run computes, in order.

    The pool is every valid tuple of order <= 100 except the six that belong
    to ``LARGE_FAMILY_POOL`` (D_39 to D_49): they are 0.07 % of the pool but
    20 % of its time, so whether a 1-in-4 sample caught D_49 or D_43 moved
    ``wall_s`` by +-10 % between seeds.  ``verify-large-family`` measures them.

    The sample is stratified by cost (``scan_costs.json``, one measured time
    per tuple): the ``SCAN_CENSUS`` costliest tuples are always in it, so the
    tail latency and the peak RSS do not hinge on the draw, and the rest is
    taken evenly along the cost ranking by ``spread_order``.  Every tuple
    outside the census has the same chance to be drawn.
    """
    spec = WORKLOADS[workload]
    pool = valid_tuples(SCAN_MAX_ORDER)
    if len(pool) != SCAN_POOL_SIZE:
        raise RuntimeError(f"pool of order <= {SCAN_MAX_ORDER} has {len(pool)} tuples")
    with open(COSTS_FILE) as fh:
        costs = json.load(fh)[spec["mode"]]
    if len(costs) != len(pool):
        raise RuntimeError(f"{COSTS_FILE} has {len(costs)} costs for {len(pool)} tuples")
    excluded = set(LARGE_FAMILY_POOL)
    ranked = [
        q
        for cost, q in sorted(zip(costs, pool), key=lambda cq: (-cq[0], cq[1]))
        if q not in excluded
    ]
    census, rest = ranked[:SCAN_CENSUS], ranked[SCAN_CENSUS:]
    count = max(1, round(seconds * spec["calls_per_s"]))
    picked = census + [rest[i] for i in spread_order(len(rest), seed)]
    if spec["mode"] == "theorem3":
        # The negative control always runs, first.
        picked = [NEGATIVE_CONTROL] + [q for q in picked if q != NEGATIVE_CONTROL]
    return picked[:count]


def verify_calls(workload: str, seed: int, seconds: int) -> list[tuple[int, int, int, int]]:
    """The tuples one verify run calls, in order: whole passes over the list.

    Each pass covers every listed tuple in an order drawn by the seed.  Whole
    passes keep the per-run median and maximum comparable across seeds; a
    seeded subset would move them by the |family|**4 cost law alone.  Every
    call runs in its own interpreter, so a tuple repeated in a later pass
    never finds tables cached by an earlier one.
    """
    spec = WORKLOADS[workload]
    passes = max(1, math.floor(seconds / spec["pass_s"]))
    rng = random.Random(seed)
    calls = []
    for _ in range(passes):
        order = list(spec["tuples"])
        rng.shuffle(order)
        calls.extend(order)
    return calls


def inputs(workload: str, seed: int, seconds: int) -> list[tuple[int, int, int, int]]:
    if WORKLOADS[workload]["kind"] == "scan":
        return scan_sample(workload, seed, seconds)
    return verify_calls(workload, seed, seconds)


def divisibility(m: int, r: int, t: int) -> bool:
    """gcd(m, r-1) | t, the paper's condition for the generator family."""
    return t % math.gcd(m, r - 1) == 0
