"""Measuring child process: one fresh interpreter per invocation.

Usage (the orchestrator ``run.py`` starts it; it is not meant to be run by
hand)::

    python3 perfbench/worker.py setup  WORKLOAD SEED SECONDS
    python3 perfbench/worker.py scan   WORKLOAD SEED SECONDS TRACE
    python3 perfbench/worker.py verify M S T R TRACE CALL_INDEX

Each mode imports ``metasum.cli`` from the checkout's ``src`` directory,
generates its inputs, notes the ``time.monotonic()`` instant it became ready
(CLOCK_MONOTONIC is system-wide on Linux, so the orchestrator can subtract
its own spawn instant), runs its calls and prints one JSON object on the
original standard output.  Program output is captured, never mixed in.

Cache hygiene: ``core.cayley_table`` keeps up to 64 tables in a per-process
``lru_cache``.  So a child never times one tuple twice, never touches or
clears that cache, and never builds a table itself (that would add work the
program may stop doing once it no longer needs the dense table).  Verify
calls get a child each, so that a child's peak RSS holds no table kept from
an earlier tuple.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (after the path set-up above)


def _import_program():
    import metasum
    import metasum.cli as cli

    location = os.path.realpath(metasum.__file__)
    if not location.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"metasum imported from {location}, not from {SRC}")
    return cli


def _facts() -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__}


def _emit(obj: dict) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def _tracer(trace: bool):
    if not trace:
        return None
    import tracer

    t = tracer.Tracer()
    tracer.install(t)
    return t


def _trace_out(t) -> dict:
    if t is None:
        return {}
    return {"spans": t.spans, "counters": dict(t.counters), "rebinds": t.rebinds}


def _prepare(workload: str, seed: int, seconds: int):
    """Set-up as ``setup_s`` counts it: import the program, make the inputs."""
    cli = _import_program()
    sample = workloads.inputs(workload, seed, seconds)
    from metasum.core import MetacyclicParams

    params = [MetacyclicParams(m=m, s=s, t=t, r=r) for m, s, t, r in sample]
    return cli, sample, params


def mode_setup(workload: str, seed: int, seconds: int) -> None:
    _prepare(workload, seed, seconds)
    _emit({"ready": time.monotonic()})


def _verify_json(cli, q, family: str | None = None) -> tuple[int, str]:
    argv = ["verify", "-m", str(q[0]), "-s", str(q[1]), "-t", str(q[2]), "-r", str(q[3])]
    if family is not None:
        argv += ["--family", family]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--output", "json"])
    return code, buf.getvalue()


def mode_scan(workload: str, seed: int, seconds: int, trace: bool) -> None:
    cli, sample, params = _prepare(workload, seed, seconds)
    mode = workloads.WORKLOADS[workload]["mode"]
    t = _tracer(trace)
    ready = time.monotonic()
    clock = time.perf_counter_ns
    rows, lat_ns, errors = [], [], {}
    for i, p in enumerate(params):
        if t is not None:
            t.tuple_id = i
        start = clock()
        try:
            row = cli.compute_scan_row(p, mode)
        except Exception as exc:  # counted as a failed tuple, run continues
            lat_ns.append(clock() - start)
            rows.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
            continue
        lat_ns.append(clock() - start)
        rows.append(row)
    control = None
    if mode == "theorem3":
        # Untimed and untraced, after the loop: the negative control's
        # abelianizations are only in the verify report, not in the scan row.
        if t is not None:
            t.recording = False
        code, out = _verify_json(cli, workloads.NEGATIVE_CONTROL, "theorem3")
        control = {"code": code, "stdout": out}
    _emit(
        {
            "ready": ready,
            "sample": sample,
            "rows": rows,
            "lat_ns": lat_ns,
            "errors": errors,
            "control": control,
            "facts": _facts(),
            **_trace_out(t),
        }
    )


def mode_verify(q: tuple[int, int, int, int], trace: bool, index: int) -> None:
    cli = _import_program()
    t = _tracer(trace)
    ready = time.monotonic()
    if t is not None:
        t.tuple_id = index
    start = time.perf_counter_ns()
    error = None
    try:
        code, out = _verify_json(cli, q)
    except Exception as exc:  # a traceback out of main() is a failed tuple
        code, out, error = None, "", f"{type(exc).__name__}: {exc}"
    call_ns = time.perf_counter_ns() - start
    _emit(
        {
            "ready": ready,
            "code": code,
            "stdout": out,
            "error": error,
            "call_ns": call_ns,
            "facts": _facts(),
            **_trace_out(t),
        }
    )


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "setup":
        mode_setup(argv[1], int(argv[2]), int(argv[3]))
    elif mode == "scan":
        mode_scan(argv[1], int(argv[2]), int(argv[3]), argv[4] == "1")
    elif mode == "verify":
        mode_verify(tuple(int(x) for x in argv[1:5]), argv[5] == "1", int(argv[6]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
