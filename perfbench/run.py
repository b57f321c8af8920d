"""metasum benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload scan-auto --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The orchestrator uses the standard
library only; every call into metasum happens in a fresh child interpreter
(``worker.py``), one process at a time, with no threads in the program.

A run:

1. starts one untimed interpreter that imports the program (it writes the
   bytecode cache), then five more that import ``metasum.cli`` and make the
   workload's inputs; ``setup_s`` is the median of those five, each timed
   from spawn until ready;
2. runs the workload's calls, checks every output against the paper's
   theorems (``checks.py``) and takes peak RSS from each child's rusage;
3. with ``--trace 1``, runs the same calls untraced and then traced
   (``tracer.py``), reports per-module self times and counters, the tracing
   overhead (traced ``wall_s`` minus untraced ``wall_s``), and writes the
   spans to ``.bench_out/``.

Besides the metric names in BENCHMARK.json, the report lines print the
per-workload names ``tuple_p99_ms`` (scans, not gated), ``verify_p50_s``,
``verify_max_s``, ``failed_frac`` and ``partial_frac`` with their sample
counts.  The last line of standard output is the JSON result.  Exit status is nonzero, with no
result line, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402  (imports metasum only inside install())
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUDGET_S = 170.0  # the whole run, children included, stays under 180 s
SETUP_PROBES = 5


class RunFailed(Exception):
    """The program could not be run; no result is printed."""


def run_child(args: list, deadline: float) -> tuple[dict, int, float]:
    """Run worker.py with ``args``; return (its JSON, ru_maxrss in KiB, spawn instant)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *map(str, args)], stdout=subprocess.PIPE, cwd=ROOT, env=env
    )
    timer = threading.Timer(max(0.0, deadline - spawn), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RunFailed(f"worker {args[:2]} exited with {proc.returncode}")
    lines = out.decode().splitlines()
    if not lines:
        raise RunFailed(f"worker {args[:2]} printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss, spawn


def setup_times(workload: str, seed: int, seconds: int, deadline: float, rss: list) -> list[float]:
    times = []
    for i in range(SETUP_PROBES + 1):
        result, maxrss, spawn = run_child(["setup", workload, seed, seconds], deadline)
        rss.append(maxrss)
        if i:  # the first start writes the bytecode cache and is not counted
            times.append(result["ready"] - spawn)
    return times


class Pass:
    """Calls, latencies, verdict checks and trace data of one pass."""

    def __init__(self) -> None:
        self.lat_s: list[float] = []
        self.rss_kib: list[int] = []
        self.failures: dict[int, str] = {}
        self.partial = 0
        self.spans: list[list] = []
        self.layers: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.rebinds: dict = {}
        self.facts: dict = {}

    @property
    def attempted(self) -> int:
        return len(self.lat_s)

    def add_trace(self, result: dict, child: int) -> None:
        if "spans" not in result:
            return
        self_ns, calls = self_times(result["spans"])
        self.layers.update(self_ns)
        self.calls.update(calls)
        self.counters.update(result["counters"])
        self.rebinds = result["rebinds"]
        self.spans.extend([child, *span] for span in result["spans"])


def self_times(spans: list) -> tuple[Counter, Counter]:
    """Self time (ns) and call count per span name: duration minus the time
    the direct children cover.  Calls in one process never overlap."""
    child_ns: Counter = Counter()
    for _sid, parent, _name, _tid, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    for sid, _parent, name, _tid, start, end in spans:
        self_ns[name] += end - start - child_ns[sid]
        calls[name] += 1
    return self_ns, calls


def scan_pass(workload: str, seed: int, seconds: int, trace: bool, deadline: float, rss: list) -> Pass:
    result, maxrss, _ = run_child(["scan", workload, seed, seconds, int(trace)], deadline)
    rss.append(maxrss)
    auto = workloads.WORKLOADS[workload]["mode"] == "auto"
    check = checks.scan_auto_row if auto else checks.scan_theorem3_row
    out = Pass()
    out.rss_kib.append(maxrss)
    out.facts = result["facts"]
    out.lat_s = [ns / 1e9 for ns in result["lat_ns"]]
    for i, (q, row) in enumerate(zip(result["sample"], result["rows"])):
        q = tuple(q)
        if row is None:
            out.failures[i] = result["errors"][str(i)]
            continue
        out.partial += bool(row["partial"])
        bad = check(q, row)
        if bad:
            out.failures[i] = bad
    if result["control"] is not None:
        bad = checks.negative_control(result["control"]["code"], result["control"]["stdout"])
        if bad:
            out.failures[0] = bad  # the control is always the first tuple
    out.add_trace(result, 0)
    return out


def verify_pass(workload: str, seed: int, seconds: int, trace: bool, deadline: float, rss: list) -> Pass:
    spec = workloads.WORKLOADS[workload]
    out = Pass()
    for i, q in enumerate(workloads.inputs(workload, seed, seconds)):
        result, maxrss, _ = run_child(["verify", *q, int(trace), i], deadline)
        rss.append(maxrss)
        out.rss_kib.append(maxrss)
        out.facts = result["facts"]
        out.lat_s.append(result["call_ns"] / 1e9)
        if result["error"] is not None:
            out.failures[i] = result["error"]
            continue
        if result["code"] == 2:
            out.partial += 1
        bad = checks.verify_report(q, result["code"], result["stdout"], spec["family_size"])
        if bad:
            out.failures[i] = bad
        out.add_trace(result, i)
    return out


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(p: Pass, setup: list[float], peak_kib: int) -> dict:
    wall = sum(p.lat_s)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "tuples_per_s": p.attempted / wall,
        "tuple_p50_ms": statistics.median(p.lat_s) * 1e3,
        "tuple_p95_ms": nearest_rank(p.lat_s, 0.95) * 1e3,
        "peak_rss_mb": peak_kib / 1024,
    }


KNOWN_SPANS = {f"{mod}.{fn}" for mod, fns in tracer.FUNCTIONS.items() for fn in fns} | {
    f"core.CayleyTable.{name}" for name in tracer.TABLE_METHODS + tracer.TABLE_PROPERTIES
}


def per_layer(names: list[str], p: Pass, untraced_wall: float) -> dict:
    """Per-layer values by metric name: module and span self times, call
    counts, counters, and the tracing overhead against the untraced pass."""
    traced_wall = sum(p.lat_s)
    closed = p.counters["coset.closed_defined"]
    values = {
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(p.spans),
        # live over defined cosets, for enumerations that closed
        "coset.useful_ratio": p.counters["coset.closed_live"] / closed if closed else 0.0,
    }
    for name in names:
        if name in values:
            continue
        head, _, tail = name.rpartition(".")
        if tail == "self_s" and head in tracer.MODULES:
            values[name] = sum(ns for span, ns in p.layers.items() if span.split(".")[0] == head) / 1e9
        elif tail == "self_s" and head in KNOWN_SPANS:
            values[name] = p.layers[head] / 1e9
        elif tail == "calls" and head in KNOWN_SPANS:
            values[name] = p.calls[head]
        elif name in tracer.COUNTERS:
            values[name] = p.counters[name]
        else:
            raise RunFailed(f"per-layer metric {name!r} is not measured by the tracer")
    return {name: values[name] for name in names}


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git (None outside a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(p: Pass) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        **p.facts,
        "git_commit": git_commit(),
    }


def report(workload: str, trace: bool, p: Pass, metrics: dict, units: dict, setup: list[float]) -> None:
    n = p.attempted
    notes = {
        "setup_s": f"median of {len(setup)} interpreter starts",
        "wall_s": f"{n} calls",
        "tuple_p50_ms": f"n={n}",
        "tuple_p95_ms": f"n={n}, nearest rank" + ("" if n >= 20 else " (= max below 20 samples)"),
    }
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    kind = workloads.WORKLOADS[workload]["kind"]
    if kind == "scan" and not trace:
        # Printed, not gated: the scans' 99th percentile sits on the knee of
        # the tail, where one rank is worth up to 3x the latency (NOTES.md).
        p99 = nearest_rank(p.lat_s, 0.99) * 1e3
        print(f"  {'tuple_p99_ms':<48} {p99:>14.6g} {'ms':<6} n={n}, nearest rank, not gated")
    if kind == "verify" and not trace:
        print(f"  {'verify_p50_s':<48} {statistics.median(p.lat_s):>14.6g} {'s':<6} n={n}")
        print(f"  {'verify_max_s':<48} {max(p.lat_s):>14.6g} {'s':<6} n={n}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "metasum", "cli.py")):
        print("error: no metasum source under src/ in this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    deadline = time.monotonic() + BUDGET_S
    kind = workloads.WORKLOADS[args.workload]["kind"]
    run_pass = scan_pass if kind == "scan" else verify_pass
    rss: list[int] = []
    try:
        setup = setup_times(args.workload, args.seed, args.seconds, deadline, rss)
        passes = [run_pass(args.workload, args.seed, args.seconds, False, deadline, rss)]
        if args.trace:
            passes.append(run_pass(args.workload, args.seed, args.seconds, True, deadline, rss))
        measured = passes[-1]
        if args.trace:
            listed = spec["per_layer"]
            metrics = per_layer([m["name"] for m in listed], measured, sum(passes[0].lat_s))
        else:
            listed = spec["end_to_end"]
            peak = max(rss + [0])
            values = end_to_end(measured, setup, peak)
            metrics = {m["name"]: values[m["name"]] for m in listed}
    except (RunFailed, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in listed}

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    partial = sum(p.partial for p in passes)
    facts = machine_facts(measured)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    report(args.workload, bool(args.trace), measured, metrics, units, setup)
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} {'ratio':<6} {failed} of {attempted}")
    print(f"  {'partial_frac':<48} {partial / attempted:>14.6g} {'ratio':<6} {partial} of {attempted}")
    for p in passes:
        for i, reason in sorted(p.failures.items())[:20]:
            print(f"  FAILED call {i}: {reason}")
    print(f"  machine {json.dumps(facts, sort_keys=True)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        detail = {
            "setup_samples_s": setup,
            "inputs": workloads.inputs(args.workload, args.seed, args.seconds),
            "latencies_s": measured.lat_s,
            "worker_rss_kib": measured.rss_kib,
            "partial": partial,
            "failures": {f"pass{k}:call{i}": r for k, p in enumerate(passes) for i, r in p.failures.items()},
            "machine": facts,
            "rebinds": measured.rebinds,
        }
        json.dump({**result, "detail": detail}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.jsonl", "w") as fh:
            fh.write('["process", "id", "parent", "name", "tuple", "start_ns", "end_ns"]\n')
            for span in measured.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
