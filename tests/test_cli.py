"""Command-line interface: parsing, exit codes, output formats, round-trips.

Exit-code contract: 0 success (verify: isomorphic), 1 invalid input,
2 resource limit, 3 oracle mismatch or internal-check failure, 4 verify
completed but not isomorphic.  JSON output must round-trip byte-identically
through json.loads + canonical_json.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metasum import core
from metasum.cli import (
    EXIT_INVALID,
    EXIT_NOT_ISOMORPHIC,
    EXIT_OK,
    EXIT_RESOURCE,
    SCAN_COLUMNS,
    build_family,
    build_parser,
    canonical_json,
    compute_scan_row,
    main,
    pool_size,
    resolve_family_mode,
    valid_tuples,
    verdict_payload,
)
from metasum.core import validate


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


class TestValidTuples:
    def test_count_frozen_at_48(self):
        assert len(valid_tuples(48)) == 2145

    def test_smallest_pool(self):
        [only] = valid_tuples(1)
        assert (only.m, only.s, only.t, only.r) == (1, 1, 0, 1)

    def test_matches_brute_enumeration_over_cube(self):
        max_order = 12
        brute = set()
        for m in range(1, max_order + 1):
            for s in range(1, max_order // m + 1):
                for t in range(m):
                    for r in range(1, m + 1):
                        try:
                            p = validate(m, s, t, r)
                        except Exception:
                            continue
                        brute.add((p.m, p.s, p.t, p.r))
        fast = {(p.m, p.s, p.t, p.r) for p in valid_tuples(max_order)}
        assert fast == brute

    def test_sorted_by_order_then_parameters(self):
        pool = valid_tuples(20)
        keys = [(p.order, p.m, p.s, p.t, p.r) for p in pool]
        assert keys == sorted(keys)


class TestFamilyModeResolution:
    def test_auto_picks_theorem3_when_divisible(self):
        assert resolve_family_mode(validate(3, 2, 0, 2), "auto") == "theorem3"

    def test_auto_picks_hall_otherwise(self):
        assert resolve_family_mode(validate(8, 2, 2, 5), "auto") == "hall"

    def test_explicit_modes_pass_through(self):
        p = validate(8, 2, 2, 5)
        assert resolve_family_mode(p, "theorem3") == "theorem3"
        assert resolve_family_mode(p, "hall") == "hall"


class TestVerify:
    def test_symmetric_group_text(self):
        code, out = run_cli(["verify", "-m", "3", "-s", "2", "-t", "0", "-r", "2"])
        assert code == EXIT_OK
        assert out == (
            "params: m=3 s=2 t=0 r=2\n"
            "family mode: theorem3\n"
            "family generators: (0,1) (1,0) (1,1) (2,1)\n"
            "transversal: (0,1) (1,0)\n"
            "checks: generating=true regular=true independent=true ganea=true\n"
            "orders: |G|=6 |S|=6 ab(S)=2 ab(G)=2\n"
            "isomorphic: true\n"
        )

    def test_negative_control_exits_four(self):
        code, _ = run_cli(
            ["verify", "-m", "8", "-s", "2", "-t", "2", "-r", "5", "--family", "theorem3"]
        )
        assert code == EXIT_NOT_ISOMORPHIC

    def test_negative_control_auto_mode_rescued_by_hall(self):
        code, out = run_cli(
            ["verify", "-m", "8", "-s", "2", "-t", "2", "-r", "5", "--output", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["family_mode"] == "hall"
        assert payload["isomorphic"] is True

    def test_json_round_trip(self):
        code, out = run_cli(
            ["verify", "-m", "8", "-s", "2", "-t", "2", "-r", "5",
             "--family", "theorem3", "--output", "json"]
        )
        assert code == EXIT_NOT_ISOMORPHIC
        payload = json.loads(out)
        assert canonical_json(payload) + "\n" == out
        assert payload["orders"] == {"group": 16, "active_sum": 32, "ab_S": 16, "ab_G": 8}
        assert payload["checks"] == {
            "generating": True,
            "regular": True,
            "independent": False,
            "ganea": True,
        }

    def test_csv_single_row(self):
        code, out = run_cli(
            ["verify", "-m", "3", "-s", "2", "-t", "0", "-r", "2", "--output", "csv"]
        )
        assert code == EXIT_OK
        header, row = out.splitlines()
        assert header == ",".join(SCAN_COLUMNS)
        assert row == "3,2,0,2,true,true,true,true,6,6,true,theorem3,false"

    def test_invalid_parameters_exit_one(self):
        code, _ = run_cli(["verify", "-m", "0", "-s", "1", "-t", "0", "-r", "1"])
        assert code == EXIT_INVALID
        code, _ = run_cli(["verify", "-m", "8", "-s", "2", "-t", "2", "-r", "3"])
        assert code == EXIT_INVALID

    # (8,2,2,5) under theorem3: |S| = 32 over an order-8 member, index 4 > 3
    PARTIAL_VERIFY = ["verify", "-m", "8", "-s", "2", "-t", "2", "-r", "5",
                      "--family", "theorem3", "--max-cosets", "3"]

    def test_tiny_coset_budget_exits_resource(self):
        code, out = run_cli(self.PARTIAL_VERIFY + ["--output", "json"])
        assert code == EXIT_RESOURCE
        payload = json.loads(out)
        assert payload["orders"]["active_sum"] is None
        assert payload["isomorphic"] is None
        assert '"isomorphic": null' in out

    def test_partial_verdict_is_unknown_in_text_and_csv(self):
        code, out = run_cli(self.PARTIAL_VERIFY)
        assert code == EXIT_RESOURCE
        assert "|S|=unknown" in out
        assert out.endswith("isomorphic: unknown\n")
        code, out = run_cli(self.PARTIAL_VERIFY + ["--output", "csv"])
        assert code == EXIT_RESOURCE
        assert out.splitlines()[1] == "8,2,2,5,false,true,false,true,,16,,theorem3,true"

    def test_cap_exceeded_exits_resource(self, monkeypatch):
        monkeypatch.setenv("METASUM_CAP", "4")
        code, _ = run_cli(["verify", "-m", "8", "-s", "2", "-t", "2", "-r", "5"])
        assert code == EXIT_RESOURCE

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 298. GiB"), "Unable to allocate 298. GiB"),
            (MemoryError(), "out of memory"),
        ],
    )
    def test_memory_error_exits_resource_in_one_line(self, monkeypatch, capsys, exc, message):
        """A table allocation the machine refuses is exit 2, not a traceback.
        The oracle's brute-force routes are the ones that still build it."""

        def refuse(self, p):
            raise exc

        monkeypatch.setattr(core.CayleyTable, "__init__", refuse)
        core._cached_table.cache_clear()
        code = main(["oracle", "-m", "7", "-s", "3", "-t", "0", "-r", "2"])
        assert code == EXIT_RESOURCE
        assert capsys.readouterr().err == f"resource limit: {message}\n"


    def test_memory_exhaustion_exits_resource_in_one_line(self):
        """Real exhaustion under a 512 MiB address-space limit, by a stage
        that keeps what it filled in a local: the report is one line, printed
        once the traceback and the memory it holds are released."""
        child = (
            "import sys\n"
            "from metasum import cli\n"
            "def fill(*args, **kwargs):\n"
            "    hold = None\n"
            "    for size in (1 << 24, 1 << 20, 1 << 16, 1 << 12, 1 << 8, 0):\n"
            "        try:\n"
            "            while True:\n"
            "                hold = (hold, bytearray(size))\n"
            "        except MemoryError:\n"
            "            pass\n"
            "    while True:\n"
            "        hold = (hold, bytearray(0))\n"
            "cli.verdict = fill\n"
            "sys.exit(cli.main(['verify', '-m', '3', '-s', '2', '-t', '0', '-r', '2']))\n"
        )
        limit = 1 << 29
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == EXIT_RESOURCE, proc.stderr
        assert proc.stderr == "resource limit: out of memory\n"

class TestTableFreeVerdicts:
    def test_no_verdict_builds_a_cayley_table(self, pool_48, monkeypatch):
        def refuse(self, p):
            raise AssertionError(f"Cayley table built for {p}")

        monkeypatch.setattr(core.CayleyTable, "__init__", refuse)
        core._cached_table.cache_clear()
        for p in pool_48:
            for mode in ("auto", "hall", "theorem3"):
                resolved = resolve_family_mode(p, mode)
                payload, _ = verdict_payload(p, resolved, build_family(p, resolved))
                assert payload["isomorphic"] or resolved == "theorem3"

    def test_verdict_path_runs_without_numpy(self):
        """In a fresh interpreter, importing the CLI, verify on a hall and a
        theorem3 tuple, present and a small scan leave numpy unimported;
        oracle imports it.  Every output equals this process's, where numpy
        is loaded."""
        child = (
            "import contextlib, io, json, sys\n"
            "from metasum import cli\n"
            "def run(argv):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        code = cli.main(argv)\n"
            "    return [code, buf.getvalue(), 'numpy' in sys.modules]\n"
            "loaded = 'numpy' in sys.modules\n"
            "print(json.dumps([loaded, [run(argv) for argv in json.loads(sys.argv[1])]]))\n"
        )
        argvs = [
            ["verify", "-m", "8", "-s", "2", "-t", "2", "-r", "5"],  # auto -> hall
            ["verify", "-m", "3", "-s", "2", "-t", "0", "-r", "2", "--output", "json"],  # theorem3
            ["present", "-m", "8", "-s", "2", "-t", "2", "-r", "5"],
            ["scan", "--max-order", "24", "--output", "csv"],
            ["oracle", "-m", "8", "-s", "2", "-t", "2", "-r", "5"],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", child, json.dumps(argvs)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded, results = json.loads(proc.stdout)
        assert not loaded
        assert [numpy for _, _, numpy in results] == [False, False, False, False, True]
        for argv, (code, out, _) in zip(argvs, results):
            assert (code, out) == run_cli(argv), argv

    @pytest.mark.parametrize(
        "extra",
        [["-m", "10000", "-s", "1", "-t", "0", "-r", "1"],
         ["-m", "3000", "-s", "1", "-t", "0", "-r", "1", "--family", "hall"]],
    )
    def test_large_order_verify_fits_in_one_gib(self, extra):
        """Memory grows with |G|, not |G|**2: a dense order-10,000 table
        alone would need 763 MiB."""
        limit = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "metasum.cli", "verify", *extra],
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.endswith("isomorphic: true\n")


    def test_dihedral_2001_verifies_in_one_gib(self):
        """2,002 members, 2 of them acting: the verdict's presentation has
        6,004 relators, not the 4,008,004 of every member pair."""
        limit = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "metasum.cli", "verify", "-m", "2001", "-s", "2", "-t", "0",
             "-r", "2000"],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.endswith("isomorphic: true\n")

class TestScan:
    def test_golden_smallest_scan(self):
        code, out = run_cli(["scan", "--max-order", "1", "--output", "csv"])
        assert code == EXIT_OK
        assert out == (
            "m,s,t,r,divisibility,regular,independent,ganea,"
            "active_sum_order,group_order,isomorphic,family_mode,partial\n"
            "1,1,0,1,true,true,true,true,1,1,true,theorem3,false\n"
        )

    def test_all_rows_isomorphic_up_to_six(self):
        code, out = run_cli(["scan", "--max-order", "6", "--output", "json"])
        assert code == EXIT_OK
        rows = json.loads(out)
        assert len(rows) == len(valid_tuples(6))
        assert all(row["isomorphic"] for row in rows)
        modes = {row["family_mode"] for row in rows}
        assert modes == {"theorem3", "hall"}

    def test_auto_versus_forced_theorem3_on_negative_control(self):
        _, auto_out = run_cli(["scan", "--max-order", "16", "--output", "csv"])
        _, t3_out = run_cli(
            ["scan", "--max-order", "16", "--family", "theorem3", "--output", "csv"]
        )
        [auto_row] = [l for l in auto_out.splitlines() if l.startswith("8,2,2,5,")]
        [t3_row] = [l for l in t3_out.splitlines() if l.startswith("8,2,2,5,")]
        assert auto_row == "8,2,2,5,false,true,true,true,16,16,true,hall,false"
        assert t3_row == "8,2,2,5,false,true,false,true,32,16,false,theorem3,false"

    def test_parallel_jobs_deterministic(self):
        _, serial = run_cli(["scan", "--max-order", "12", "--output", "csv"])
        _, parallel = run_cli(["scan", "--max-order", "12", "--jobs", "2", "--output", "csv"])
        assert serial == parallel

    def test_json_round_trip(self):
        code, out = run_cli(["scan", "--max-order", "4", "--output", "json"])
        assert code == EXIT_OK
        assert canonical_json(json.loads(out)) + "\n" == out

    def test_partial_rows_flagged_not_fatal(self):
        # One live coset closes only where S is the cyclic subgroup of its
        # largest member.  S3 = (3,2,0,2) has no element of order 6, so its
        # index is at least 2 and its row must be partial.
        code, out = run_cli(
            ["scan", "--max-order", "8", "--max-cosets", "1", "--output", "json"]
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        [s3] = [row for row in rows if (row["m"], row["s"], row["t"], row["r"]) == (3, 2, 0, 2)]
        assert s3["partial"]
        assert not all(row["partial"] for row in rows)
        for row in rows:
            if row["partial"]:
                assert row["active_sum_order"] is None
                assert row["isomorphic"] is None

    def test_max_order_above_cap_is_invalid(self, monkeypatch):
        monkeypatch.setenv("METASUM_CAP", "4")
        code, _ = run_cli(["scan", "--max-order", "10"])
        assert code == EXIT_INVALID

    # sha256 of the stdout of ``scan --max-order 24`` in every output and
    # family mode, frozen: a change that is not meant to alter the reports
    # must leave every byte of them as it is.  The theorem3 digests were
    # retaken when |S| moved to enumeration over <x_F>: 188 rows that hit the
    # limit over the trivial subgroup now close with |S| != |G|; every other
    # row is unchanged.
    SCAN_24_SHA256 = {
        ("csv", "auto"): "47f7253cd56ab73c16ef011ca32e587030ea480411c997c1ee737ad5bafc5829",
        ("csv", "hall"): "6230f66467e775f05aad09b0506616b6ef6b218f12370c4c334f80ee852066a9",
        ("csv", "theorem3"): "ddbe4ae72e98ef4beea75b7a221ebd96ab1188590c52c4371dd67c91dd7670c6",
        ("json", "auto"): "f60d336fa1943be840237b8749780b5ead890189e908a1a0281eecdaeec4f201",
        ("json", "hall"): "d096c7ba9e01553d65ea974a0aa3b6c9be8f4b22de88c22d731d52aba95a18a6",
        ("json", "theorem3"): "d4c94a8e0882e53fd52c93fd7051ca310c99b9c0cf60bbff3de0cb6621ce6daa",
        ("text", "auto"): "cdaed1fc7dc4da72cde402f7100038193516b404f0c18a27dbc7bcc07d5bf16e",
        ("text", "hall"): "4fa38b0fd8f91ce4c87130531778d609c90d787e0178f53837fc95c053ba8209",
        ("text", "theorem3"): "e5013d8dfcc9aeec5595b77370b727cbe6369111aa7f4d7f43965669428cc7dd",
    }

    @pytest.mark.parametrize("output, family", sorted(SCAN_24_SHA256))
    def test_scan_output_bytes_frozen(self, output, family):
        code, out = run_cli(
            ["scan", "--max-order", "24", "--output", output, "--family", family]
        )
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.SCAN_24_SHA256[(output, family)]

    def test_compute_scan_row_shape(self):
        row = compute_scan_row(validate(6, 2, 3, 5))
        assert tuple(row.keys()) == SCAN_COLUMNS
        assert row["family_mode"] == "hall"
        assert row["active_sum_order"] == 12 == row["group_order"]


class TestPresent:
    def test_text_dump(self):
        code, out = run_cli(["present", "-m", "4", "-s", "2", "-t", "2", "-r", "3"])
        assert code == EXIT_OK
        assert out == (
            "gen x0 order 4\n"
            "gen x1 order 4\n"
            "x0 x0 x0 x0\n"
            "x1 x1 x1 x1\n"
            "X0 x1 x0 X1 X1 X1\n"
            "X1 x0 x1 X0 X0 X0\n"
        )

    def test_json_round_trip(self):
        code, out = run_cli(
            ["present", "-m", "4", "-s", "2", "-t", "2", "-r", "3", "--output", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert canonical_json(payload) + "\n" == out
        assert [g["symbol"] for g in payload["generators"]] == ["x0", "x1"]
        assert [g["order"] for g in payload["generators"]] == [4, 4]
        assert [1, 1, 1, 1] in payload["relators"]

    def test_csv_rejected(self):
        code, _ = run_cli(
            ["present", "-m", "4", "-s", "2", "-t", "2", "-r", "3", "--output", "csv"]
        )
        assert code == EXIT_INVALID


class TestOracle:
    def test_quaternion_all_agree(self):
        code, out = run_cli(["oracle", "-m", "4", "-s", "2", "-t", "2", "-r", "3"])
        assert code == EXIT_OK
        assert "center: agree (order 2 vs 2)" in out
        assert "schur: agree (2 vs 2)" in out
        assert "all agree: true" in out

    def test_skips_brute_schur_above_guard(self):
        # |G/Z| = 14 > 12: the brute-force route is skipped, not failed.
        code, out = run_cli(["oracle", "-m", "7", "-s", "2", "-t", "0", "-r", "6"])
        assert code == EXIT_OK
        assert "schur: skipped" in out
        assert "all agree: true" in out

    def test_json_round_trip_and_shape(self):
        code, out = run_cli(
            ["oracle", "-m", "4", "-s", "2", "-t", "2", "-r", "3", "--output", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert canonical_json(payload) + "\n" == out
        assert payload["all_agree"] is True
        assert set(payload["comparisons"]) == {
            "center",
            "derived",
            "derived_center_intersection",
            "schur",
            "ganea",
        }
        assert all(c["agree"] for c in payload["comparisons"].values())

    def test_skipped_comparison_has_null_agreement(self):
        _, out = run_cli(
            ["oracle", "-m", "7", "-s", "2", "-t", "0", "-r", "6", "--output", "json"]
        )
        payload = json.loads(out)
        schur = payload["comparisons"]["schur"]
        assert schur["agree"] is None
        assert schur["note"]
        assert payload["all_agree"] is True

    def test_csv_rejected(self):
        code, _ = run_cli(
            ["oracle", "-m", "4", "-s", "2", "-t", "2", "-r", "3", "--output", "csv"]
        )
        assert code == EXIT_INVALID


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["verify"],  # missing required parameters
            ["verify", "-m", "3", "-s", "2", "-t", "0"],  # missing -r
            ["scan"],  # missing --max-order
            ["verify", "-m", "x", "-s", "2", "-t", "0", "-r", "2"],
        ],
    )
    def test_exit_code_one(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INVALID

    def test_scan_zero_max_order_invalid(self):
        code, _ = run_cli(["scan", "--max-order", "0"])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "-m", "3", "-s", "2", "-t", "0", "-r", "2", "--max-cosets", "0"],
            ["verify", "-m", "3", "-s", "2", "-t", "0", "-r", "2", "--max-cosets", "-5"],
            ["scan", "--max-order", "4", "--max-cosets", "0"],
            ["scan", "--max-order", "4", "--jobs", "0"],
            ["scan", "--max-order", "4", "--jobs", "-3"],
        ],
    )
    def test_nonpositive_limits_rejected_in_one_line(self, argv, capsys):
        code, out = run_cli(argv)
        assert code == EXIT_INVALID
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: --") and err.count("\n") == 1


class TestPoolSize:
    @pytest.mark.parametrize(
        "jobs, ntasks, cpus, expected",
        [
            (1, 100, 8, 1),
            (4, 100, 8, 4),
            (64, 100, 8, 8),  # at most one worker per CPU
            (64, 3, 8, 3),  # at most one worker per task
            (4, 100, None, 1),  # unknown CPU count counts as one
            (4, 0, 8, 1),
        ],
    )
    def test_clamp(self, jobs, ntasks, cpus, expected):
        assert pool_size(jobs, ntasks, cpus) == expected


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["verify", "-m", "3", "-s", "2", "-t", "0", "-r", "2"])
        assert args.family_mode == "auto"
        assert args.output == "text"
        assert args.max_cosets is None

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "metasum.cli", "verify",
             "-m", "3", "-s", "2", "-t", "0", "-r", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "isomorphic: true" in proc.stdout


# Drawn command lines: small, zero, negative and huge integers in every
# integer flag.  --jobs stays in {-1, 0, 1} so no worker pool is started, and
# --max-cosets stays small so no coset table grows large.
_INTS = st.one_of(
    st.integers(-3, 20),
    st.sampled_from([10**6, 2**31, 2**63, 10**18, -(2**63)]),
)
_FLAGS = (
    ("-m", _INTS),
    ("-s", _INTS),
    ("-t", _INTS),
    ("-r", _INTS),
    ("--max-order", _INTS),
    ("--max-cosets", st.integers(-2, 300)),
    ("--jobs", st.sampled_from([-1, 0, 1])),
    ("--output", st.sampled_from(["text", "json", "csv"])),
    ("--family", st.sampled_from(["auto", "theorem3", "hall"])),
)


@st.composite
def _argv(draw) -> list[str]:
    argv = [draw(st.sampled_from(["verify", "scan", "present", "oracle"]))]
    for flag, values in _FLAGS:
        if draw(st.integers(0, 9)) < 7:
            argv += [flag, str(draw(values))]
    return argv


class TestDrawnCommandLines:
    @settings(max_examples=80, deadline=None)
    @given(_argv())
    # s far above the cap: the twist table of mul is refused, not allocated.
    @example(["verify", "-m", "1", "-s", str(2**63), "-t", "0", "-r", "1"])
    # ord(3 mod 2**31) = 2**29: the closed forms must not run before the cap check.
    @example(["oracle", "-m", str(2**31), "-s", str(2**63), "-t", "0", "-r", "3"])
    def test_exit_code_in_contract_without_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("METASUM_CAP", "16")
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
