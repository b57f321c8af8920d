"""Output checks against the paper's theorems (standard library only).

Each function returns None when the output is consistent and a one-line
reason otherwise.  A reason makes the tuple count in ``failed``.
"""

from __future__ import annotations

import json

from workloads import NEGATIVE_CONTROL, divisibility


def _echo(row: dict, q) -> str | None:
    m, s, t, r = q
    if (row["m"], row["s"], row["t"], row["r"]) != (m, s, t, r):
        return "row parameters differ from the input tuple"
    if row["group_order"] != m * s:
        return f"group_order {row['group_order']} != m*s = {m * s}"
    if row["divisibility"] != divisibility(m, r, t):
        return "divisibility column disagrees with gcd(m, r-1) | t"
    return None


def scan_auto_row(q, row: dict) -> str | None:
    """Hall theorem: the auto family always recovers G, never partially."""
    m, s, t, r = q
    bad = _echo(row, q)
    if bad:
        return bad
    expected_mode = "theorem3" if divisibility(m, r, t) else "hall"
    if row["family_mode"] != expected_mode:
        return f"auto resolved to {row['family_mode']}, expected {expected_mode}"
    if row["partial"]:
        return "coset enumeration hit the limit"
    if row["active_sum_order"] != m * s or not row["isomorphic"]:
        return f"|S| = {row['active_sum_order']} but |G| = {m * s}"
    return None


def scan_theorem3_row(q, row: dict) -> str | None:
    """Theorem 3 both ways: S = G iff gcd(m, r-1) | t; the generator family
    is independent iff the same condition holds; partial rows only where the
    condition fails."""
    m, s, t, r = q
    bad = _echo(row, q)
    if bad:
        return bad
    div = divisibility(m, r, t)
    if row["family_mode"] != "theorem3":
        return f"family_mode {row['family_mode']} under --family theorem3"
    if row["independent"] != div:
        return f"independent={row['independent']} but divisibility={div}"
    if row["partial"]:
        if div:
            return "partial row where the divisibility condition holds"
        return None
    if row["isomorphic"] != div:
        return f"isomorphic={row['isomorphic']} but divisibility={div}"
    if row["isomorphic"] != (row["active_sum_order"] == m * s):
        return "isomorphic flag disagrees with |S| = |G|"
    if q == NEGATIVE_CONTROL and row["active_sum_order"] != 32:
        return f"negative control |S| = {row['active_sum_order']}, expected 32"
    return None


def _report(stdout: str) -> dict | None:
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def negative_control(code: int, stdout: str) -> str | None:
    """(8,2,2,5) under theorem3: exit 4, |S| = 32, ab(S) = 16, ab(G) = 8."""
    if code != 4:
        return f"negative control exit code {code}, expected 4"
    payload = _report(stdout)
    if payload is None:
        return "negative control report is not JSON"
    orders = payload["orders"]
    want = {"group": 16, "active_sum": 32, "ab_S": 16, "ab_G": 8}
    if orders != want:
        return f"negative control orders {orders}, expected {want}"
    return None


def verify_report(q, code: int | None, stdout: str, family_bounds) -> str | None:
    """Exit 0 and |S| = |G| for tuples where the auto family recovers G."""
    m, s, t, r = q
    if code != 0:
        return f"exit code {code}, expected 0"
    payload = _report(stdout)
    if payload is None:
        return "report is not JSON"
    if payload["params"] != {"m": m, "s": s, "t": t, "r": r}:
        return "report parameters differ from the input tuple"
    orders = payload["orders"]
    if orders["group"] != m * s or orders["active_sum"] != orders["group"]:
        return f"orders {orders} do not show |S| = |G| = {m * s}"
    if payload["isomorphic"] is not True:
        return "isomorphic is not true"
    lo, hi = family_bounds
    if not lo <= len(payload["family"]) <= hi:
        return f"family has {len(payload['family'])} members, outside [{lo}, {hi}]"
    return None
