"""`fareysub verify` runs the parts of its suites in worker processes; its output must not show it."""

import concurrent.futures
import itertools
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fareysub import Fraction, cli, counting, neighbors, verify
from fareysub.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
SELECTORS = ["--all-maps", "--identities", "--neighbors"]


def _verify_reference(flags, max_n):
    """verify's (exit code, stdout, stderr), formatted from the serial library suites."""
    everything = not flags
    rows = []
    if everything or "--all-maps" in flags:
        rows += verify.map_suite(max_n)
    if everything or "--identities" in flags:
        rows += verify.identity_suite(max_n=max_n, enum_cross_max=min(max_n, 30))
    if everything or "--neighbors" in flags:
        rows += verify.neighbor_suite(max_n)
    width = max(len(row.name) for row in rows)
    out = f"{'suite':<{width}}  {'checks':>8}  {'failures':>8}  status\n"
    for row in rows:
        status = "ok" if row.ok else f"FAIL ({row.first_failure})"
        out += f"{row.name:<{width}}  {row.checks:>8}  {row.failures:>8}  {status}\n"
    failed = sum(row.failures for row in rows)
    total = sum(row.checks for row in rows)
    if failed:
        return 3, out, f"{failed} of {total} checks failed\n"
    return 0, out + f"all {total} checks passed\n", ""


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("max_n", [0, 1, 6])
@pytest.mark.parametrize(
    "flags",
    [list(chosen) for r in range(4) for chosen in itertools.combinations(SELECTORS, r)],
    ids=lambda flags: " ".join(flags) or "default",
)
def test_verify_equals_the_serial_suites(capsys, flags, max_n):
    got = _run(capsys, ["verify", *flags, "--max-n", str(max_n)])
    assert got == _verify_reference(flags, max_n)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched check reaches the workers only when they are forked",
)
def test_a_check_failing_in_a_worker_fails_the_call(capsys, monkeypatch):
    # Wrong at t = 7 only; the central identity reads it as well.
    plain = counting.moebius_floor_sum
    monkeypatch.setattr(counting, "moebius_floor_sum", lambda t: plain(t) + (t == 7))
    code, out, err = _run(capsys, ["verify", "--identities", "--max-n", "6"])
    assert (code, out, err) == _verify_reference(["--identities"], 6)
    failing = [line for line in out.splitlines() if "FAIL" in line]
    assert [line.partition("  ")[0] for line in failing] == [
        "identities/moebius floor sum equals 1",
        "identities/square-sum ties bool size to Farey size",
    ]
    assert all(line.endswith(" 1  FAIL (t=7)") for line in failing)
    assert code == 3
    assert re.fullmatch(r"2 of \d+ checks failed\n", err)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_verify_prints_the_same_under_every_start_method(capsys, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    default = _run(capsys, ["verify", "--max-n", "6"])
    script = (
        "import multiprocessing, sys\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        "from fareysub.cli import main\n"
        "sys.exit(main(['verify', '--max-n', '6']))\n"
    )
    result = _python("-c", script, method)
    assert (result.returncode, result.stdout, result.stderr) == default


def test_verify_leaves_no_worker_running(capsys):
    assert main(["verify", "--max-n", "4"]) == 0
    assert multiprocessing.active_children() == []


def test_importing_the_cli_loads_no_pool_modules():
    script = (
        "import sys, fareysub.cli\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing', 'fareysub.verify') if m in sys.modules])"
    )
    result = _python("-c", script)
    assert (result.returncode, result.stdout) == (0, "[]\n")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched variant reaches the workers only when they are forked",
)
def test_a_wrong_cardinality_variant_fails_verify_cleanly(capsys, monkeypatch):
    # The alternate fnum form is wrong at q = 7 only.
    plain = counting.f_cardinality_variants

    def wrong_at_7(q, p):
        variants = plain(q, p)
        variants["moebius-sum-alt"] += q == 7
        return variants

    monkeypatch.setattr(counting, "f_cardinality_variants", wrong_at_7)
    rows = _rows_of_parts("identities", 12)
    failing = [row for row in rows if not row.ok]
    assert [row.name for row in failing] == ["counting/fnum cardinality vs oracle"]
    assert failing[0].failures == 9 and failing[0].first_failure.startswith("n=7 m=1 got ")
    code, out, err = _run(capsys, ["verify", "--identities", "--max-n", "12"])
    assert code == 3
    assert "counting/fnum cardinality vs oracle" in out and "FAIL (n=7 m=1 got " in out
    assert re.fullmatch(r"9 of \d+ checks failed\n", err)


def _rows_of_parts(name, max_n):
    return [row for part in verify.SUITES[name] for row in part(max_n)]


@pytest.mark.parametrize("max_n", [0, 1, 6, 20])
def test_each_suite_is_the_concatenation_of_its_parts(max_n):
    # SuiteRow equality compares name, checks, failures and first failure.
    # identity_suite is the one wrapper with knobs of its own: neighbor_suite
    # concatenates SUITES["neighbors"], and map_suite is the maps suite's part.
    assert _rows_of_parts("identities", max_n) == verify.identity_suite(
        max_n=max_n, enum_cross_max=min(max_n, 30)
    )
    assert _rows_of_parts("identities", max_n) == verify.identity_suite(max_n=max_n)


def test_every_part_appears_once_and_covers_every_suite():
    parts = [part for suite in verify.SUITES.values() for part in suite]
    assert len(set(parts)) == len(parts) == 7
    assert list(verify.SUITES) == ["maps", "identities", "neighbors"]
    # No row is split between two parts or made by two.
    names = [row.name for part in parts for row in part(4)]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize(
    "flags, parts", [([], 7), (["--all-maps"], 1), (["--neighbors", "--identities"], 6)]
)
def test_verify_output_does_not_depend_on_the_worker_count(capsys, monkeypatch, cpus, flags, parts):
    workers = []
    submitted = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    got = _run(capsys, ["verify", *flags, "--max-n", "6"])
    assert got == _verify_reference(flags, 6)
    # The selected suites' parts, each once, in print order whatever the
    # order of the flags.
    flag = {"maps": "--all-maps", "identities": "--identities", "neighbors": "--neighbors"}
    want = [
        part for name, suite in verify.SUITES.items() if not flags or flag[name] in flags for part in suite
    ]
    assert submitted == want and len(want) == parts
    assert workers == [min(parts, cpus)]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched formula reaches the workers only when they are forked",
)
def test_a_check_failing_in_a_later_part_fails_the_call(capsys, monkeypatch):
    # Wrong at one anchor of one order only: the bool part runs after five others.
    plain = neighbors.boolean_special_neighbors

    def wrong_at_7_3(n, m, anchor):
        pred, succ = plain(n, m, anchor)
        return (succ, pred) if (n, m, anchor) == (7, 3, Fraction(1, 3)) else (pred, succ)

    monkeypatch.setattr(neighbors, "boolean_special_neighbors", wrong_at_7_3)
    code, out, err = _run(capsys, ["verify", "--max-n", "8"])
    assert (code, out, err) == _verify_reference([], 8)
    failing = [line for line in out.splitlines() if "FAIL" in line]
    assert len(failing) == 1
    assert failing[0].startswith("neighbors/bool special anchors ")
    assert " 1  FAIL (n=7 m=3 anchor 1/3 got " in failing[0]
    assert code == 3
    assert re.fullmatch(r"1 of \d+ checks failed\n", err)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched step reaches the workers only when they are forked",
)
def test_a_check_raising_in_a_worker_fails_its_part_only(capsys, monkeypatch):
    # Every neighbor part but bool's solves this congruence at --max-n 8.
    _, reference, _ = _verify_reference(["--neighbors"], 8)
    plain = neighbors._g_pair

    def raising_at_2_5(n, m, h, k, sign):
        if (n, m, h, k, sign) == (7, 3, 2, 5, -1):
            raise RuntimeError("planted fault")
        return plain(n, m, h, k, sign)

    monkeypatch.setattr(neighbors, "_g_pair", raising_at_2_5)
    code, out, err = _run(capsys, ["verify", "--neighbors", "--max-n", "8"])
    # A row is its name, checks, failures and status, two or more spaces apart.
    rows = [re.split(r"\s{2,}", line.strip()) for line in out.splitlines()[1:]]
    assert [row for row in rows if row[3] != "ok"] == [
        [f"neighbors/{part}", "1", "1", "FAIL (RuntimeError: planted fault)"]
        for part in ("_gdiff_neighbor_rows", "_fnum_neighbor_rows", "_endpoint_rows")
    ]
    # The bool part's rows print as in an unpatched run, in their place.
    kept = [re.split(r"\s{2,}", line.strip()) for line in reference.splitlines() if "/bool " in line]
    assert [row for row in rows if row[3] == "ok"] == kept == rows[2:4]
    checks = 3 + sum(int(row[1]) for row in kept)
    assert code == 3 and err == f"3 of {checks} checks failed\n"


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched step reaches the workers only when they are forked",
)
def test_running_out_of_memory_in_a_worker_stays_a_domain_error(capsys, monkeypatch):
    plain = neighbors._g_pair

    def exhausted_at_2_5(n, m, h, k, sign):
        if (n, m, h, k, sign) == (7, 3, 2, 5, -1):
            raise MemoryError
        return plain(n, m, h, k, sign)

    monkeypatch.setattr(neighbors, "_g_pair", exhausted_at_2_5)
    code, out, err = _run(capsys, ["verify", "--neighbors", "--max-n", "8"])
    assert (code, out) == (2, "")
    assert err == "fareysub: domain error: out of memory; the order is too large\n"
