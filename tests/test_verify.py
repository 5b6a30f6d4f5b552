from collections import Counter

from fareysub import Fraction, SequenceKind, SequenceSpec, enumerate_sequence, neighbors, verify
from fareysub.cli import main

from strategies import valid_ms


def test_oracle_cache_is_bounded():
    maxsize = verify._cached.cache_info().maxsize
    assert maxsize is not None
    verify._cached.cache_clear()
    # gdiff(1, m) is {0/1, 1/1} for every m <= 0: many distinct, cheap specs.
    for m in range(-maxsize - 10, 1):
        verify.cached_sequence(SequenceSpec(SequenceKind.GDIFF, 1, m))
    assert verify._cached.cache_info().currsize == maxsize


def _run_cli_suites_in_one_process(max_n):
    """Every `verify` part in this process, in the order a one-worker pool runs them."""
    rows = [row for suite in verify.SUITES.values() for part in suite for row in part(max_n)]
    return all(row.ok for row in rows)


def test_verify_sweep_to_20_never_evicts():
    verify._cached.cache_clear()
    assert _run_cli_suites_in_one_process(20)
    info = verify._cached.cache_info()
    assert info.currsize == info.misses < info.maxsize


# Every row of `verify --max-n 20` and its check count, recorded before the
# oracle was shared per order; the sweep must keep checking exactly this.
VERIFY_20_CHECKS = [
    ("maps/mirror_full", 20),
    ("maps/mirror_boolean", 190),
    ("maps/lemma_f_to_g", 210),
    ("maps/lemma_g_to_f", 210),
    ("maps/thm_left_to_f", 190),
    ("maps/thm_f_to_left", 190),
    ("maps/thm_right_to_g", 190),
    ("maps/thm_g_to_right", 190),
    ("maps/thm_left_to_gdual", 190),
    ("maps/thm_gdual_to_left", 190),
    ("maps/thm_right_to_f", 190),
    ("maps/thm_f_to_right", 190),
    ("maps/prop_left_involution", 100),
    ("maps/prop_left_to_right_pres", 100),
    ("maps/prop_left_to_right_rev", 100),
    ("maps/prop_right_involution", 100),
    ("maps/prop_right_to_left_pres", 100),
    ("maps/prop_right_to_left_rev", 100),
    ("maps/composite left involution identity", 100),
    ("maps/composite right involution identity", 100),
    ("identities/moebius floor sum equals 1", 300),
    ("identities/square-sum ties bool size to Farey size", 300),
    ("identities/square-sum versus enumeration", 20),
    ("counting/gdiff cardinality vs oracle", 250),
    ("counting/fnum cardinality vs oracle", 250),
    ("counting/bool cardinality vs oracle", 190),
    ("counting/gdiff rank vs oracle", 10362),
    ("counting/gdiff rank moebius variant (reported)", 10362),
    ("neighbors/gdiff pred+succ", 11999),
    ("neighbors/gdiff unit fractions", 1900),
    ("neighbors/gdiff from consecutive pair", 11999),
    ("neighbors/fnum pred+succ", 11999),
    ("neighbors/bool special anchors", 504),
    ("neighbors/bool pred+succ", 5224),
    ("neighbors/endpoint dispatch", 3021),
]

STRUCTURE_20_CHECKS = [
    ("structure/ascending with determinant 1", 1090),
    ("structure/interior mediants", 1090),
    ("structure/endpoints", 1090),
    ("structure/bool equals fnum intersect gdiff", 190),
    ("structure/generators match oracle", 1090),
    ("structure/gdiff second element closed form", 250),
]


def test_verify_sweep_to_20_check_counts_are_pinned(capsys):
    assert main(["verify", "--max-n", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    width = max(len(name) for name, _ in VERIFY_20_CHECKS)
    expected = [f"{'suite':<{width}}  {'checks':>8}  {'failures':>8}  status"]
    expected += [f"{name:<{width}}  {checks:>8}  {0:>8}  ok" for name, checks in VERIFY_20_CHECKS]
    expected.append(f"all {sum(checks for _, checks in VERIFY_20_CHECKS)} checks passed")
    assert lines == expected
    assert lines[-1] == "all 71630 checks passed"


def test_structure_suite_to_20_check_counts_are_pinned():
    rows = verify.structure_suite(20)
    assert [(row.name, row.checks) for row in rows] == STRUCTURE_20_CHECKS
    assert all(row.ok for row in rows)


def test_cached_oracle_equals_the_scan_for_every_kind():
    for kind in SequenceKind:
        for n in range(1, 31):
            for m in valid_ms(kind, n):
                spec = SequenceSpec(kind, n, m)
                assert verify.cached_sequence(spec) == enumerate_sequence(spec), spec


def test_verify_sweep_scans_each_order_once(monkeypatch):
    scanned = Counter()
    scan = verify.enumerate_sequence

    def counting_scan(spec, **kwargs):
        scanned[spec.kind, spec.n] += 1
        return scan(spec, **kwargs)

    monkeypatch.setattr(verify, "enumerate_sequence", counting_scan)
    verify._cached.cache_clear()
    verify._farey.cache_clear()
    try:
        assert _run_cli_suites_in_one_process(12)
    finally:
        # Leave no cache built while the scan was patched.
        verify._cached.cache_clear()
        verify._farey.cache_clear()
    assert scanned
    assert {kind for kind, _ in scanned} == {SequenceKind.FULL}
    assert max(scanned.values()) == 1


def test_passing_suites_format_no_failure_text(monkeypatch):
    calls = []
    plain_str = Fraction.__str__

    def counting_str(self):
        calls.append(self)
        return plain_str(self)

    monkeypatch.setattr(Fraction, "__str__", counting_str)
    rows = verify.neighbor_suite(8) + verify.map_suite(8)
    assert all(row.ok for row in rows)
    assert sum(row.checks for row in rows) > 0
    assert calls == []


def test_failing_check_records_its_first_failure_text():
    row = verify.SuiteRow("demo")
    row.count(True, "n={} x={}", 5, Fraction(1, 5))
    row.count(False, "n={} x={} got {}", 7, Fraction(2, 7), (Fraction(1, 4), None))
    row.count(False, "n={} x={}", 9, Fraction(4, 9))
    row.count(False, "plain text")
    assert (row.checks, row.failures, row.ok) == (4, 3, False)
    assert row.first_failure == "n=7 x=2/7 got (Fraction(num=1, den=4), None)"
    literal = verify.SuiteRow("literal")
    literal.count(False, "braces {} kept")
    assert literal.first_failure == "braces {} kept"


def test_the_bool_sweep_checks_every_anchor(monkeypatch):
    # Wrong at 1/3 only: the anchor row fails once for each spec with
    # n != 2m whose family holds 1/3, and the pred+succ row stays ok.
    plain = neighbors.boolean_special_neighbors
    third = Fraction(1, 3)

    def wrong_at_one_third(n, m, anchor):
        pred, succ = plain(n, m, anchor)
        return (succ, pred) if anchor == third else (pred, succ)

    monkeypatch.setattr(neighbors, "boolean_special_neighbors", wrong_at_one_third)
    anchor_row, bool_row = verify._bool_neighbor_rows(12)
    holding = [
        spec for spec in verify._main_sweep(SequenceKind.BOOLEAN, 12)
        if spec.n != 2 * spec.m and third in enumerate_sequence(spec)
    ]
    assert holding and anchor_row.failures == len(holding)
    assert bool_row.ok
