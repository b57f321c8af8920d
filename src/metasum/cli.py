"""Command line front end for active-sum verification of metacyclic groups.

Four subcommands:

* ``verify``  — run the full pipeline on one parameter tuple and report the
  verdict (text, JSON, or CSV).
* ``scan``    — enumerate every valid tuple with m*s <= max_order and emit
  one verdict row per tuple, sorted by (m*s, m, s, t, r).
* ``present`` — print the active-sum presentation for one tuple.
* ``oracle``  — cross-check the closed-form structure invariants (center,
  derived subgroup, Schur multiplier of the central quotient, Ganea bound)
  against independent brute-force computations.

Exit codes (fixed for CI use):

* 0 — success; for ``verify`` this additionally requires isomorphic = true.
* 1 — invalid input (bad flags or parameters violating the presentation
  constraints).
* 2 — resource limit hit (coset limit, enumeration cap, overflow, memory).
* 3 — oracle mismatch or failed internal check (signals an implementation
  bug, never bad user input).
* 4 — ``verify`` completed but the active sum is not isomorphic to the
  group.  Codes 1-3 have fixed meanings above, so the legitimate negative
  answer gets its own code; "exit 0 iff isomorphic" still holds.

The ``METASUM_CAP`` environment variable sets the element-enumeration cap
(default 10**6) used by all commands; it has no flag.

JSON reports round-trip byte-identically: parse with ``json.loads``,
re-serialize with :func:`canonical_json`, and the bytes match.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Any, Sequence

from .active_sum import build_active_sum_presentation, verdict
from .core import (
    MetacyclicParams,
    Subgroup,
    bruteforce_center,
    bruteforce_derived,
    default_cap,
    validate,
)
from .errors import (
    CapExceeded,
    ConstraintViolation,
    CosetLimitExceeded,
    InternalCheckError,
    OverflowDetected,
    SearchFailed,
)
from .families import Family, build_generator_family, divisibility_condition, transversal
from .hall import build_hall_family
from .structure import (
    bruteforce_derived_center_intersection,
    bruteforce_schur_of_central_quotient,
    center_closed_form,
    derived_center_intersection_order,
    derived_closed_form,
    ganea_check,
    schur_order_of_central_quotient,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RESOURCE = 2
EXIT_MISMATCH = 3
EXIT_NOT_ISOMORPHIC = 4

FAMILY_MODES = ("auto", "theorem3", "hall")
OUTPUT_FORMATS = ("text", "json", "csv")

SCAN_COLUMNS = (
    "m",
    "s",
    "t",
    "r",
    "divisibility",
    "regular",
    "independent",
    "ganea",
    "active_sum_order",
    "group_order",
    "isomorphic",
    "family_mode",
    "partial",
)


def canonical_json(obj: Any) -> str:
    """The one JSON serialization used everywhere, so reports round-trip."""
    return json.dumps(obj, indent=2, sort_keys=True)


def resolve_family_mode(p: MetacyclicParams, mode: str) -> str:
    """auto resolves to theorem3 when gcd(m, r-1) divides t, hall otherwise."""
    if mode == "auto":
        return "theorem3" if divisibility_condition(p) else "hall"
    return mode


def build_family(p: MetacyclicParams, mode: str) -> Family:
    if mode == "theorem3":
        return build_generator_family(p)
    if mode == "hall":
        return build_hall_family(p).family
    raise ConstraintViolation(f"unknown family mode {mode!r}")


def valid_tuples(max_order: int) -> list[MetacyclicParams]:
    """All canonical (m, s, t, r) with m*s <= max_order, sorted for reports.

    For each (m, s): r runs over [1, m] with r**s = 1 mod m, t over [0, m)
    with m | t*(r-1).  Sort key is (m*s, m, s, t, r).
    """
    if max_order < 1:
        raise ConstraintViolation(f"max_order must be positive, got {max_order}")
    out = []
    for m in range(1, max_order + 1):
        one = 1 % m
        for s in range(1, max_order // m + 1):
            for r in range(1, m + 1):
                if pow(r, s, m) != one:
                    continue
                for t in range(m):
                    if t * (r - 1) % m == 0:
                        out.append(MetacyclicParams(m=m, s=s, t=t, r=r))
    out.sort(key=lambda p: (p.order, p.m, p.s, p.t, p.r))
    return out


def _fmt_bool(value: bool | None) -> str:
    if value is None:
        return ""
    return "true" if value else "false"


def _element_lists(p: MetacyclicParams, subgroups: Sequence[Subgroup]) -> list[list[int]]:
    return [list(divmod(sub.generator, p.s)) for sub in subgroups]


def _sorted_elements(p: MetacyclicParams, sub: Subgroup) -> list[list[int]]:
    return [list(divmod(x, p.s)) for x in sub.key]


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def verdict_payload(
    p: MetacyclicParams,
    mode: str,
    family: Family,
    max_cosets: int | None = None,
) -> tuple[dict, Any]:
    """Run the pipeline and shape the report dict; returns (payload, verdict)."""
    v = verdict(p, family, max_cosets=max_cosets)
    trans = transversal(p, family)
    payload = {
        "params": {"m": p.m, "s": p.s, "t": p.t, "r": p.r},
        "family": _element_lists(p, family.subgroups),
        "family_mode": mode,
        "transversal": _element_lists(p, trans.representatives),
        "checks": {
            "generating": bool(v.generating),
            "regular": bool(v.regular),
            "independent": bool(v.independent),
            "ganea": bool(v.ganea_surjective),
        },
        "orders": {
            "group": v.group_order,
            "active_sum": v.active_sum_order,
            "ab_S": v.abelianized_order_s,
            "ab_G": v.abelianized_order_g,
        },
        "isomorphic": v.isomorphic,
    }
    return payload, v


def _scan_row_from(p: MetacyclicParams, mode: str, v: Any) -> dict:
    return {
        "m": p.m,
        "s": p.s,
        "t": p.t,
        "r": p.r,
        "divisibility": divisibility_condition(p),
        "regular": bool(v.regular),
        "independent": bool(v.independent),
        "ganea": bool(v.ganea_surjective),
        "active_sum_order": v.active_sum_order,
        "group_order": v.group_order,
        "isomorphic": v.isomorphic,
        "family_mode": mode,
        "partial": v.active_sum_order is None,
    }


def _print_verify_text(payload: dict) -> None:
    par = payload["params"]
    print(f"params: m={par['m']} s={par['s']} t={par['t']} r={par['r']}")
    print(f"family mode: {payload['family_mode']}")
    gens = " ".join(f"({g[0]},{g[1]})" for g in payload["family"])
    print(f"family generators: {gens}")
    reps = " ".join(f"({g[0]},{g[1]})" for g in payload["transversal"])
    print(f"transversal: {reps}")
    names = ("generating", "regular", "independent", "ganea")
    flags = " ".join(f"{name}={_fmt_bool(payload['checks'][name])}" for name in names)
    print(f"checks: {flags}")
    o = payload["orders"]
    active = "unknown" if o["active_sum"] is None else o["active_sum"]
    print(
        f"orders: |G|={o['group']} |S|={active} "
        f"ab(S)={o['ab_S']} ab(G)={o['ab_G']}"
    )
    iso = payload["isomorphic"]
    print(f"isomorphic: {'unknown' if iso is None else _fmt_bool(iso)}")


def _row_cells(row: dict, missing: str) -> list[str]:
    """One scan row as strings in column order; None becomes ``missing``."""
    cells = []
    for col in SCAN_COLUMNS:
        value = row[col]
        if isinstance(value, bool):
            cells.append(_fmt_bool(value))
        elif value is None:
            cells.append(missing)
        else:
            cells.append(str(value))
    return cells


def _print_rows_csv(rows: list[dict]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    for row in rows:
        writer.writerow(_row_cells(row, ""))


def _print_rows_text(rows: list[dict]) -> None:
    table = [list(SCAN_COLUMNS)] + [_row_cells(row, "-") for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(SCAN_COLUMNS))]
    for line in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())


def _check_max_cosets(max_cosets: int | None) -> None:
    if max_cosets is not None and max_cosets < 1:
        raise ConstraintViolation(f"--max-cosets must be at least 1, got {max_cosets}")


def cmd_verify(args: argparse.Namespace) -> int:
    _check_max_cosets(args.max_cosets)
    p = validate(args.m, args.s, args.t, args.r)
    mode = resolve_family_mode(p, args.family_mode)
    family = build_family(p, mode)
    payload, v = verdict_payload(p, mode, family, max_cosets=args.max_cosets)
    if args.output == "json":
        print(canonical_json(payload))
    elif args.output == "csv":
        _print_rows_csv([_scan_row_from(p, mode, v)])
    else:
        _print_verify_text(payload)
    if v.active_sum_order is None:
        return EXIT_RESOURCE
    return EXIT_OK if v.isomorphic else EXIT_NOT_ISOMORPHIC


# --------------------------------------------------------------------------
# scan
# --------------------------------------------------------------------------


def compute_scan_row(
    p: MetacyclicParams, family_mode: str = "auto", max_cosets: int | None = None
) -> dict:
    """Verdict row for one tuple; partial (|S| = None) on coset-limit hits."""
    mode = resolve_family_mode(p, family_mode)
    family = build_family(p, mode)
    v = verdict(p, family, max_cosets=max_cosets)
    return _scan_row_from(p, mode, v)


def _scan_worker(task: tuple[int, int, int, int, str, int | None]) -> dict:
    m, s, t, r, mode, max_cosets = task
    return compute_scan_row(MetacyclicParams(m=m, s=s, t=t, r=r), mode, max_cosets)


def pool_size(jobs: int, ntasks: int, cpus: int | None) -> int:
    """Worker processes for a scan: the requested jobs, capped at one per CPU
    (``cpus`` as ``os.cpu_count()`` reports it, None counting as 1) and one
    per task, and at least 1."""
    return max(1, min(jobs, cpus or 1, ntasks))


def cmd_scan(args: argparse.Namespace) -> int:
    _check_max_cosets(args.max_cosets)
    if args.jobs < 1:
        raise ConstraintViolation(f"--jobs must be at least 1, got {args.jobs}")
    if args.max_order < 1:
        raise ConstraintViolation("scan requires --max-order >= 1")
    if args.max_order > default_cap():
        raise ConstraintViolation(
            f"--max-order {args.max_order} exceeds the enumeration cap {default_cap()}"
        )
    tuples = valid_tuples(args.max_order)
    tasks = [(p.m, p.s, p.t, p.r, args.family_mode, args.max_cosets) for p in tuples]
    workers = pool_size(args.jobs, len(tasks), os.cpu_count())
    if workers > 1:
        import multiprocessing  # here only: importing it slows every interpreter start
        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_scan_worker, tasks)
    else:
        rows = [_scan_worker(task) for task in tasks]
    if args.output == "json":
        print(canonical_json(rows))
    elif args.output == "csv":
        _print_rows_csv(rows)
    else:
        _print_rows_text(rows)
    return EXIT_OK


# --------------------------------------------------------------------------
# present
# --------------------------------------------------------------------------


def cmd_present(args: argparse.Namespace) -> int:
    if args.output == "csv":
        raise ConstraintViolation("present supports text and json output only")
    p = validate(args.m, args.s, args.t, args.r)
    mode = resolve_family_mode(p, args.family_mode)
    family = build_family(p, mode)
    pres = build_active_sum_presentation(p, family)
    if args.output == "json":
        payload = {
            "params": {"m": p.m, "s": p.s, "t": p.t, "r": p.r},
            "family_mode": mode,
            "generators": [
                {"symbol": g.symbol, "order": g.order, "element": list(divmod(g.element, p.s))}
                for g in pres.generators
            ],
            "relators": [list(rel) for rel in pres.relators],
        }
        print(canonical_json(payload))
    else:
        print(pres.dump())
    return EXIT_OK


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------


def _comparison(closed: Any, brute: Any) -> dict:
    """One closed-vs-brute row; ``agree`` is None when brute force was skipped."""
    return {"closed": closed, "brute": brute, "agree": None if brute is None else closed == brute}


def oracle_report(p: MetacyclicParams) -> dict:
    """Closed-form vs brute-force comparison table for one tuple.

    The Schur comparison is skipped (agree = null, with a note) when the
    central quotient is larger than the homology guard; skipped rows do not
    count as disagreement.
    """
    # Brute force first: its Cayley table checks |G| against the cap, which
    # also bounds the closed forms' loops (the order of r divides s <= |G|).
    brute_center = _sorted_elements(p, bruteforce_center(p))
    brute_cap = bruteforce_derived_center_intersection(p)
    closed_schur = schur_order_of_central_quotient(p)
    schur_note = None
    try:
        brute_schur = bruteforce_schur_of_central_quotient(p)
    except CapExceeded as exc:
        brute_schur, schur_note = None, str(exc)
    comparisons = {
        "center": _comparison(_sorted_elements(p, center_closed_form(p)), brute_center),
        "derived": _comparison(
            _sorted_elements(p, derived_closed_form(p)), _sorted_elements(p, bruteforce_derived(p))
        ),
        "derived_center_intersection": _comparison(derived_center_intersection_order(p), brute_cap),
        "schur": _comparison(closed_schur, brute_schur),
        "ganea": _comparison(
            ganea_check(p).surjective, None if brute_schur is None else brute_schur <= brute_cap
        ),
    }
    if schur_note is not None:
        comparisons["schur"]["note"] = schur_note
    return {
        "params": {"m": p.m, "s": p.s, "t": p.t, "r": p.r},
        "comparisons": comparisons,
        "all_agree": all(c["agree"] is not False for c in comparisons.values()),
    }


def _print_oracle_text(report: dict) -> None:
    par = report["params"]
    print(f"params: m={par['m']} s={par['s']} t={par['t']} r={par['r']}")
    for name, comp in report["comparisons"].items():
        if comp["agree"] is None:
            note = comp.get("note", "brute-force route unavailable")
            print(f"{name}: skipped ({note})")
            continue
        status = "agree" if comp["agree"] else "MISMATCH"
        if isinstance(comp["closed"], list):
            detail = f"order {len(comp['closed'])} vs {len(comp['brute'])}"
        elif isinstance(comp["closed"], bool):
            detail = f"{_fmt_bool(comp['closed'])} vs {_fmt_bool(comp['brute'])}"
        else:
            detail = f"{comp['closed']} vs {comp['brute']}"
        print(f"{name}: {status} ({detail})")
    print(f"all agree: {_fmt_bool(report['all_agree'])}")


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.output == "csv":
        raise ConstraintViolation("oracle supports text and json output only")
    p = validate(args.m, args.s, args.t, args.r)
    report = oracle_report(p)
    if args.output == "json":
        print(canonical_json(report))
    else:
        _print_oracle_text(report)
    return EXIT_OK if report["all_agree"] else EXIT_MISMATCH


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the invalid-input code on usage errors."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-m", type=int, required=True, help="order of the normal generator a")
    sub.add_argument("-s", type=int, required=True, help="order of b modulo <a>")
    sub.add_argument("-t", type=int, required=True, help="exponent with b**s = a**t")
    sub.add_argument("-r", type=int, required=True, help="twist with b**-1 a b = a**r")


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--output",
        choices=OUTPUT_FORMATS,
        default="text",
        help="report format (default: text)",
    )


def _add_family(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family",
        choices=FAMILY_MODES,
        default="auto",
        dest="family_mode",
        help="family construction; auto picks theorem3 when gcd(m, r-1) | t",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="metasum",
        description="Active sums of cyclic subgroups of finite metacyclic groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify one parameter tuple end to end")
    _add_params(p_verify)
    _add_family(p_verify)
    p_verify.add_argument(
        "--max-cosets",
        type=int,
        default=None,
        help="limit on live cosets of <x_F>, F the largest member (default: 10 * m * s)",
    )
    _add_output(p_verify)

    p_scan = sub.add_parser("scan", help="verdict table over all tuples up to a group order")
    p_scan.add_argument("--max-order", type=int, required=True, help="largest m*s to include")
    _add_family(p_scan)
    p_scan.add_argument("--max-cosets", type=int, default=None)
    p_scan.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    _add_output(p_scan)

    p_present = sub.add_parser("present", help="print the active-sum presentation")
    _add_params(p_present)
    _add_family(p_present)
    _add_output(p_present)

    p_oracle = sub.add_parser("oracle", help="closed forms vs brute force cross-check")
    _add_params(p_oracle)
    _add_output(p_oracle)

    return parser


def run(args: argparse.Namespace) -> int:
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "scan":
        return cmd_scan(args)
    if args.command == "present":
        return cmd_present(args)
    if args.command == "oracle":
        return cmd_oracle(args)
    raise ConstraintViolation(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ConstraintViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (CapExceeded, CosetLimitExceeded, OverflowDetected, MemoryError) as exc:
        # Printed after the handler: leaving it frees the traceback and the
        # frames it holds, which may be what exhausted the memory.
        message = str(exc) or "out of memory"
    except (InternalCheckError, SearchFailed) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"resource limit: {message}", file=sys.stderr)
    return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
