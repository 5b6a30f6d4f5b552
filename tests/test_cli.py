import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fareysub import (
    DomainError,
    SequenceKind,
    SequenceSpec,
    boolean_cardinality_variants,
    catalog,
    f_cardinality_variants,
    g_cardinality_variants,
    generate_sequence,
    parse_fraction,
)
from fareysub import cli, counting, sequences
from fareysub.cli import main
from fareysub.verify import _main_sweep

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_plain_golden(capsys):
    code, out, err = run(capsys, "gen", "--kind", "bool", "-n", "6", "-m", "4")
    assert code == 0
    assert out == "0/1 1/3 1/2 3/5 2/3 3/4 4/5 1/1\n"

    code, out, _ = run(capsys, "gen", "--kind", "full", "-n", "1")
    assert code == 0 and out == "0/1 1/1\n"

    code, out, _ = run(capsys, "gen", "--kind", "gdiff", "-n", "6", "-m", "4")
    assert code == 0 and out == "0/1 1/3 1/2 3/5 2/3 3/4 4/5 5/6 1/1\n"


def test_gen_accepts_negative_m(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "gdiff", "-n", "2", "-m", "-2")
    assert code == 0 and out == "0/1 1/2 1/1\n"


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "bool", "-n", "6", "-m", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["fractions"] == ["0/1", "1/3", "1/2", "3/5", "2/3", "3/4", "4/5", "1/1"]
    assert payload["metadata"] == {"kind": "bool", "n": 6, "m": 4, "cardinality": 8}


def test_gen_csv(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "full", "-n", "3", "--format", "csv")
    assert code == 0
    assert out == "num,den\n0,1\n1,3\n1,2\n2,3\n1,1\n"


def test_gen_output_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "fnum", "-n", "7", "-m", "3")
    assert code == 0
    fractions = [parse_fraction(tok) for tok in out.split()]
    assert all(a < b for a, b in zip(fractions, fractions[1:]))
    assert " ".join(str(f) for f in fractions) + "\n" == out


def test_gen_domain_error(capsys):
    code, _, err = run(capsys, "gen", "--kind", "fnum", "-n", "6", "-m", "0")
    assert code == 2 and "fnum" in err
    code, _, err = run(capsys, "gen", "--kind", "bool", "-n", "1", "-m", "1")
    assert code == 2


def _reference_gen(spec, fmt):
    """gen output formatted from a whole generate_sequence list, term by term."""
    fractions = generate_sequence(spec)
    if fmt == "plain":
        return " ".join(str(f) for f in fractions) + "\n"
    if fmt == "json":
        metadata = {"kind": spec.kind.value, "n": spec.n, "m": spec.m, "cardinality": len(fractions)}
        return json.dumps({"fractions": [str(f) for f in fractions], "metadata": metadata}) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["num", "den"])
    for f in fractions:
        writer.writerow([f.num, f.den])
    return buffer.getvalue()


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("kind", [kind.value for kind in SequenceKind])
def test_gen_streams_the_same_bytes(capsys, kind, fmt):
    # n = 60 gives more terms than one output batch for full, fnum and gdiff.
    for n, m in [(2, 1), (7, 3), (31, 20), (60, 17), (60, 43)]:
        spec = SequenceSpec(SequenceKind(kind), n, m)
        argv = ["gen", "--kind", kind, "-n", str(n), "-m", str(m), "--format", fmt]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == _reference_gen(spec, fmt)


def _stdout(argv):
    """The exit code and stdout of one in-process call."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


def test_gen_is_the_same_at_every_run_size(monkeypatch):
    # Runs of one to three terms put a run boundary next to every term, and
    # the first write then joins many runs.  Each argv is parsed once and
    # handed to cmd_gen at every size: parsing would take most of the time.
    default = sequences._RUN
    for kind in SequenceKind:
        for spec in _main_sweep(kind, 39):
            m = [] if spec.m is None else ["-m", str(spec.m)]
            for fmt in ("plain", "json", "csv"):
                argv = ["gen", "--kind", kind.value, "-n", str(spec.n), *m, "--format", fmt]
                args = cli._parser().parse_args(argv)
                outputs = []
                for size in (default, 1, 2, 3):
                    monkeypatch.setattr(sequences, "_RUN", size)
                    with contextlib.redirect_stdout(io.StringIO()) as out:
                        assert cli.cmd_gen(args) == 0
                    outputs.append(out.getvalue())
                assert outputs[1:] == outputs[:1] * 3, argv


# SHA-256 of stdout, recorded from the term-at-a-time generator that runs
# replaced; each output crosses many runs and output batches.
_GEN_DIGESTS = [
    ("gen --kind full -n 1500 --format plain", "7af850662ef70972a6a59081aba4e0e707d5c3583fe8ca6a49393e0b4914e636"),
    ("gen --kind gdiff -n 2000 -m 700 --format csv", "424b826569fa1e6cd0d14d42f08f1240448ebf1ce2c6a6f108825409b090da3f"),
    ("gen --kind fnum -n 1800 -m 600 --format json", "d5040de2c60e63e04adc185c6dc8aa8d54b416dc06e988f3570dd3bea22f464e"),
    ("gen --kind bool -n 2500 -m 1100 --format plain", "62a279e4722da404c684450b5b6db5751d95adf425ad3ce1ca5affd2d64586a4"),
    ("gen --kind bool-left -n 3000 -m 1900 --format csv", "6a3112d8775fbf7298543477b433a2bff3dd4e672484289d592e2310be575d86"),
    ("gen --kind bool-right -n 2400 -m 700 --format json", "798855acefeaba0f87c48aa3fb723f35b514dd1429e95f5b788334fd8e1b6940"),
]


@pytest.mark.parametrize("command, digest", _GEN_DIGESTS, ids=[c for c, _ in _GEN_DIGESTS])
def test_gen_output_beyond_the_corpus_is_pinned(command, digest):
    code, out = _stdout(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _Stdout(io.StringIO):
    """stdout that notes, at each write, the terms and runs gen had been handed, and the text."""

    def __init__(self, handed):
        super().__init__()
        self.handed = handed
        self.seen = []

    def write(self, text):
        self.seen.append((*self.handed, text))
        return super().write(text)


@pytest.mark.parametrize("size", [1, 2, 3, 1024])
def test_gen_writes_each_run_as_it_is_made(monkeypatch, size):
    # Each run is written as soon as it is made, the 2-term seed run together
    # with the head, so no write is empty.
    handed = [0, 0]

    def counted(spec):
        for run in term_runs(spec):
            handed[0] += len(run) // 2
            handed[1] += 1
            yield run

    term_runs = cli._term_runs
    monkeypatch.setattr(cli, "_term_runs", counted)
    monkeypatch.setattr(sequences, "_RUN", size)
    for kind, n, m in [("full", 60, 0), ("bool", 60, 17), ("bool-left", 90, 30), ("fnum", 9, 4), ("gdiff", 80, 3)]:
        handed[:] = [0, 0]
        stdout = _Stdout(handed)
        with contextlib.redirect_stdout(stdout):
            assert main(["gen", "--kind", kind, "-n", str(n), "-m", str(m)]) == 0
        total, runs = handed
        terms_seen, runs_seen, texts = zip(*stdout.seen)
        # One write per run, then the closing newline once every run is in.
        assert runs_seen == (*range(1, runs + 1), runs), (kind, n, m)
        assert terms_seen[0] == 2 and all(texts), (kind, n, m)
        assert stdout.getvalue().count(" ") + 1 == total


def test_gen_reports_a_late_fault_after_the_runs_written(capsys, monkeypatch):
    # A walk that fails after its first runs exits 3 with one line on stderr,
    # and stdout holds exactly the runs written before the fault.
    def failing(spec):
        yield from islice(term_runs(spec), 3)
        raise RuntimeError("walk")

    term_runs = cli._term_runs
    monkeypatch.setattr(cli, "_term_runs", failing)
    monkeypatch.setattr(sequences, "_RUN", 100)
    code, out, err = run(capsys, "gen", "--kind", "full", "-n", "60")
    assert code == 3
    assert err == "fareysub: internal check failed: walk\n"
    written = [term for run in islice(term_runs(SequenceSpec(SequenceKind.FULL, 60)), 3) for term in run]
    assert out == " ".join("%d/%d" % pair for pair in zip(written[0::2], written[1::2]))


def test_gen_into_a_closed_pipe_exits_zero_and_silent():
    # The reader takes a few bytes and closes the pipe long before the 1.2M
    # terms of F_2000 are written.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "fareysub.cli", "gen", "--kind", "full", "-n", "2000"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b"0/1 1/2000"
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, stderr) == (0, b"")


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize(
    "args",
    [("full", "0", "0"), ("fnum", "6", "0"), ("gdiff", "6", "6"), ("bool", "1", "1"),
     ("bool-left", "6", "6"), ("bool-right", "6", "0")],
)
def test_gen_domain_errors_print_nothing(capsys, args, fmt):
    kind, n, m = args
    code, out, err = run(capsys, "gen", "--kind", kind, "-n", n, "-m", m, "--format", fmt)
    assert (code, out) == (2, "")
    assert "domain error" in err


def _python(*args):
    """Run a fresh interpreter on this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_gen_is_the_same_under_python_O():
    argv = ["-m", "fareysub.cli", "gen", "--kind", "bool", "-n", "40", "-m", "17"]
    plain, optimized = _python(*argv), _python("-O", *argv)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stderr == optimized.stderr == ""
    assert optimized.stdout == plain.stdout == _reference_gen(SequenceSpec(SequenceKind.BOOLEAN, 40, 17), "plain")


_QUERIES_UNDER_O = [
    ["neighbors", "--kind", "full", "-n", "1000", "355/997"],
    ["neighbors", "--kind", "fnum", "-n", "1000", "-m", "300", "299/1000"],
    ["neighbors", "--kind", "gdiff", "-n", "1000", "-m", "700", "701/1000"],
    ["neighbors", "--kind", "bool", "-n", "1000", "-m", "600", "1/2"],
    ["neighbors", "--kind", "bool-left", "-n", "1000", "-m", "600", "333/700"],
    ["neighbors", "--kind", "bool-right", "-n", "1000", "-m", "600", "599/990"],
    ["map", "--name", "thm_f_to_left", "-n", "6", "-m", "4", "1/2"],
    ["map", "--name", "mirror_full", "-n", "6", "2/5"],
    ["map", "--name", "thm_g_to_right", "-n", "10", "-m", "7", "3/5"],
]


@pytest.mark.parametrize("argv", _QUERIES_UNDER_O, ids=lambda argv: " ".join(argv[:3]))
def test_queries_are_the_same_under_python_O(capsys, argv):
    plain, optimized = _python("-m", "fareysub.cli", *argv), _python("-O", "-m", "fareysub.cli", *argv)
    code, out, _ = run(capsys, *argv)
    assert plain.returncode == optimized.returncode == code == 0
    assert plain.stderr == optimized.stderr == ""
    assert optimized.stdout == plain.stdout == out


def test_neighbor_invariant_survives_python_O():
    # 1/7 is no member of order 5; the successor step leaves [0/1, 1/1] and
    # its range check must still fire when asserts are stripped.
    code = "from fareysub.neighbors import _g_pair; _g_pair(5, 0, 1, 7, 1)"
    proc = _python("-O", "-c", code)
    assert proc.returncode == 1
    assert "RuntimeError" in proc.stderr and "left [0/1, 1/1]" in proc.stderr


def test_gen_usage_errors(capsys):
    code, _, err = run(capsys, "gen", "--kind", "nope", "-n", "6")
    assert code == 1
    code, _, err = run(capsys, "gen", "--kind", "bool", "-n", "6")
    assert code == 1 and "-m" in err
    code, _, err = run(capsys, "gen", "-n", "6")
    assert code == 1


def test_neighbors_examples(capsys):
    code, out, _ = run(capsys, "neighbors", "--kind", "gdiff", "-n", "6", "-m", "4", "1/2")
    assert code == 0 and out == "1/3 3/5\n"
    code, out, _ = run(capsys, "neighbors", "--kind", "bool", "-n", "6", "-m", "4", "1/2")
    assert code == 0 and out == "1/3 3/5\n"
    code, out, _ = run(capsys, "neighbors", "--kind", "full", "-n", "6", "1/2")
    assert code == 0 and out == "2/5 3/5\n"
    code, out, _ = run(capsys, "neighbors", "--kind", "fnum", "-n", "6", "-m", "4", "4/5")
    assert code == 0 and out == "3/4 1/1\n"


def test_neighbors_domain_errors(capsys):
    code, _, err = run(capsys, "neighbors", "--kind", "gdiff", "-n", "6", "-m", "4", "5/7")
    assert code == 2
    code, _, err = run(capsys, "neighbors", "--kind", "gdiff", "-n", "6", "-m", "4", "0/1")
    assert code == 2 and "endpoint" in err


def test_neighbors_rejects_unreduced_fraction(capsys):
    code, _, err = run(capsys, "neighbors", "--kind", "gdiff", "-n", "6", "-m", "4", "2/4")
    assert code == 1 and "1/2" in err
    code, _, err = run(capsys, "neighbors", "--kind", "gdiff", "-n", "6", "-m", "4", "junk")
    assert code == 1


def test_card_examples(capsys):
    assert run(capsys, "card", "--kind", "bool", "-n", "6", "-m", "4")[:2] == (0, "8\n")
    assert run(capsys, "card", "--kind", "full", "-n", "6")[:2] == (0, "13\n")
    assert run(capsys, "card", "--kind", "gdiff", "-n", "6", "-m", "4")[:2] == (0, "9\n")
    assert run(capsys, "card", "--kind", "bool-left", "-n", "6", "-m", "4")[:2] == (0, "3\n")
    assert run(capsys, "card", "--kind", "bool-right", "-n", "6", "-m", "4")[:2] == (0, "6\n")


def test_card_json_metadata_names_formula_variants(capsys):
    code, out, _ = run(capsys, "card", "--kind", "gdiff", "-n", "6", "-m", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cardinality"] == 9
    assert payload["metadata"]["method"] == "phi-sum"
    assert payload["metadata"]["variants"] == {"phi-sum": 9, "moebius-sum": 9}


def test_rank_examples(capsys):
    assert run(capsys, "rank", "--kind", "gdiff", "-n", "6", "-m", "4", "1/1")[:2] == (0, "8\n")
    assert run(capsys, "rank", "--kind", "gdiff", "-n", "6", "-m", "4", "1/2")[:2] == (0, "2\n")


def test_rank_json_names_its_method(capsys):
    code, out, _ = run(capsys, "rank", "--kind", "full", "-n", "6", "1/6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 1
    assert payload["metadata"]["method"] == "phi-sum-transport"

    code, out, _ = run(capsys, "rank", "--kind", "gdiff", "-n", "6", "-m", "4", "1/2", "--format", "json")
    payload = json.loads(out)
    assert payload["metadata"]["method"] == "phi-sum"
    assert payload["metadata"]["variants"]["moebius-sum"] == 2


def test_rank_beyond_the_enumeration_bound(capsys):
    # 9000/17999 follows 1/2 in bool(20000, 9000); the left half up to 1/2
    # has 35566118 members.
    argv = ("-n", "20000", "-m", "9000", "9000/17999")
    assert run(capsys, "rank", "--kind", "bool-right", *argv)[:2] == (0, "1\n")
    assert run(capsys, "rank", "--kind", "bool", *argv)[:2] == (0, "35566118\n")
    # rank enumerates nothing, so it takes no --max-order: the flag is a usage error.
    argv = ("rank", "--kind", "fnum", "-n", "20000", "-m", "3", "1/1")
    assert run(capsys, *argv, "--max-order", "10")[:2] == (1, "")
    assert run(capsys, *argv)[:2] == (0, "43331\n")


def test_rank_domain_errors(capsys):
    assert run(capsys, "rank", "--kind", "gdiff", "-n", "6", "-m", "4", "0/1")[:2] == (0, "0\n")
    code, _, _ = run(capsys, "rank", "--kind", "full", "-n", "6", "1/7")
    assert code == 2


def _only_refused(table):
    def call(order):
        if order < 2**31:
            raise AssertionError(f"a counting table of order {order} was requested")
        return table(order)

    return call


@pytest.mark.parametrize("n", [2**31, 10**20])
@pytest.mark.parametrize("command", ["card", "rank"])
@pytest.mark.parametrize("kind", list(SequenceKind))
def test_orders_beyond_counting_are_domain_errors(capsys, monkeypatch, n, command, kind):
    # The order is refused before the Moebius table is built.  A table below
    # the bound would take gigabytes here, so asking for one fails the test
    # instead of allocating it.
    monkeypatch.setattr(counting, "_mu_upto", _only_refused(counting._mu_upto))
    m = [] if kind is SequenceKind.FULL else ["-m", str(n // 2)]
    argv = [command, "--kind", kind.value, "-n", str(n), *m] + (["1/2"] if command == "rank" else [])
    for fmt in ("plain", "json"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and "below 2**31" in err


def test_out_of_memory_is_a_domain_error(capsys, monkeypatch):
    def no_memory(limit):
        raise MemoryError

    monkeypatch.setattr(counting, "_mu_upto", no_memory)
    code, out, err = run(capsys, "card", "--kind", "full", "-n", "1000")
    assert (code, out) == (2, "")
    assert err.startswith("fareysub: domain error:") and err.count("\n") == 1


def test_map_examples(capsys):
    code, out, _ = run(capsys, "map", "--name", "thm_f_to_left", "-n", "6", "-m", "4", "1/2")
    assert code == 0 and out == "1/3\n"
    code, out, _ = run(capsys, "map", "--name", "mirror_full", "-n", "6", "2/5")
    assert code == 0 and out == "3/5\n"


def test_map_errors(capsys):
    code, _, _ = run(capsys, "map", "--name", "prop_left_involution", "-n", "6", "-m", "2", "1/3")
    assert code == 2
    code, _, _ = run(capsys, "map", "--name", "not_a_map", "-n", "6", "-m", "2", "1/3")
    assert code == 2
    code, _, err = run(capsys, "map", "--name", "thm_f_to_left", "-n", "6", "1/2")
    assert code == 1 and "-m" in err
    code, _, _ = run(capsys, "map", "--name", "thm_f_to_left", "-n", "6", "-m", "4", "2/4")
    assert code == 1


def test_verify_all_maps(capsys):
    code, out, _ = run(capsys, "verify", "--all-maps", "--max-n", "8")
    assert code == 0
    assert "maps/thm_f_to_left" in out
    assert "all" in out and "passed" in out


def test_verify_default_runs_every_suite(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "6")
    assert code == 0
    assert "maps/" in out and "identities/" in out and "neighbors/" in out


def test_verify_selected_suites(capsys):
    code, out, _ = run(capsys, "verify", "--identities", "--neighbors", "--max-n", "6")
    assert code == 0
    assert "maps/" not in out
    assert "identities/" in out and "neighbors/" in out


def test_verify_rejects_a_negative_bound(capsys):
    for bound in ("-1", "-5"):
        code, out, err = run(capsys, "verify", "--max-n", bound)
        assert (code, out) == (1, "") and "--max-n" in err


def test_verify_refuses_a_bound_beyond_the_oracle_before_any_part_runs(capsys, monkeypatch):
    # With the bound lowered to 3, --max-n 4 is refused at once, and the
    # sweep at the bound itself still runs.  raising=False: a cli that reads
    # no bound fails on the exit code, not on the patch.
    monkeypatch.setattr(cli, "MAX_ENUM_ORDER", 3, raising=False)
    code, out, err = run(capsys, "verify", "--max-n", "4")
    assert (code, out, err) == (2, "", "fareysub: domain error: --max-n 4 exceeds the enumeration bound 3\n")
    code, out, _ = run(capsys, "verify", "--max-n", "3")
    assert code == 0 and out.endswith("checks passed\n")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "fareysub" in out


def test_main_builds_one_parser_for_every_call(capsys):
    cli._parser.cache_clear()
    first = [run(capsys, "card", "--kind", "bool", "-n", "9", "-m", "4") for _ in range(2)]
    second = [run(capsys, "card", "--kind", "bool", "-n", "9") for _ in range(2)]
    assert first == [(0, "17\n", "")] * 2
    assert second[0] == second[1] and second[0][0] == 1
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def _card_reference(spec):
    """card --format json, formatted from the counting functions one kind at a time."""
    n, m = spec.n, spec.m
    method, variants = {
        "full": lambda: ("moebius-sum", f_cardinality_variants(n, n)),
        "fnum": lambda: ("moebius-sum", f_cardinality_variants(n, m)),
        "gdiff": lambda: ("phi-sum", g_cardinality_variants(n, m)),
        "bool": lambda: ("half-sum", boolean_cardinality_variants(n, m)),
        "bool-left": lambda: ("moebius-sum", f_cardinality_variants(n - m, m)),
        "bool-right": lambda: ("moebius-sum", f_cardinality_variants(m, n - m)),
    }[spec.kind.value]()
    metadata = {"kind": spec.kind.value, "n": n, "m": m, "method": method, "variants": variants}
    return json.dumps({"cardinality": variants[method], "metadata": metadata}) + "\n"


@pytest.mark.parametrize("kind", [kind.value for kind in SequenceKind])
def test_card_json_for_every_kind(capsys, kind):
    for n in range(1, 41):
        for m in [None] if kind == "full" else range(-3, n + 4):
            try:
                spec = SequenceSpec(SequenceKind(kind), n, m)
            except DomainError:
                continue
            m_args = [] if m is None else ["-m", str(m)]
            code, out, err = run(capsys, "card", "--kind", kind, "-n", str(n), *m_args, "--format", "json")
            assert (code, err) == (0, ""), spec
            assert out == _card_reference(spec), spec


@pytest.mark.parametrize("kind", [kind.value for kind in SequenceKind])
def test_card_json_catches_a_wrong_run_weight(capsys, monkeypatch, kind):
    # Each json size pair is the kernel, which walks _blocks, beside a per-d
    # form, which does not; so one wrong run weight splits every pair.
    blocks = counting._blocks

    def skewed(*args):
        runs = blocks(*args)
        weight, N, R = next(runs)
        yield weight + 1, N, R
        yield from runs

    monkeypatch.setattr(counting, "_blocks", skewed)
    m_args = [] if kind == "full" else ["-m", "12"]
    spec = SequenceSpec(SequenceKind(kind), 30, 12 if m_args else None)
    _, variants = counting.cardinality_variants(spec)
    assert len(set(variants.values())) == 2, variants
    code, out, err = run(capsys, "card", "--kind", kind, "-n", "30", *m_args, "--format", "json")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "variants disagree" in err


def test_a_failed_internal_check_exits_3_without_a_traceback():
    # A fresh interpreter, so that nothing but main stands between the
    # failed check and the exit code.
    code = (
        "import sys\n"
        "from fareysub import cli, counting\n"
        "blocks = counting._blocks\n"
        "def skewed(*args):\n"
        "    runs = blocks(*args)\n"
        "    weight, N, R = next(runs)\n"
        "    yield weight + 1, N, R\n"
        "    yield from runs\n"
        "counting._blocks = skewed\n"
        "sys.exit(cli.main(['card', '--kind', 'gdiff', '-n', '30', '-m', '12', '--format', 'json']))\n"
    )
    proc = _python("-c", code)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("fareysub: internal check failed: cardinality variants disagree")


@pytest.mark.parametrize("kind", [kind.value for kind in SequenceKind])
def test_plain_card_prints_the_json_cardinality_without_variants(capsys, monkeypatch, kind):
    argvs = []
    for n in range(1, 41):
        for m in [None] if kind == "full" else range(-3, n + 4):
            try:
                SequenceSpec(SequenceKind(kind), n, m)
            except DomainError:
                continue
            argvs.append(["card", "--kind", kind, "-n", str(n)] + ([] if m is None else ["-m", str(m)]))
    want = [json.loads(run(capsys, *argv, "--format", "json")[1])["cardinality"] for argv in argvs]

    def unused(*args):
        raise AssertionError("plain card computed a cardinality variant")

    for name in ("g_cardinality_variants", "f_cardinality_variants", "boolean_cardinality_variants"):
        monkeypatch.setattr(counting, name, unused)
    for argv, value in zip(argvs, want):
        assert run(capsys, *argv) == (0, f"{value}\n", ""), argv


@pytest.mark.parametrize("kind", [kind.value for kind in SequenceKind])
def test_plain_rank_prints_the_json_rank_without_variants(capsys, monkeypatch, oracle, kind):
    # Every member of every spec up to n = 16: two in-process calls of about
    # 150 us per member, 5 s in all; n = 30 would take 50 s.
    argvs = []
    for n in range(1, 17):
        for m in [None] if kind == "full" else range(-3, n + 4):
            try:
                SequenceSpec(SequenceKind(kind), n, m)
            except DomainError:
                continue
            m_args = [] if m is None else ["-m", str(m)]
            for x in oracle(SequenceKind(kind), n, m):
                argvs.append(["rank", "--kind", kind, "-n", str(n), *m_args, str(x)])
    want = [json.loads(run(capsys, *argv, "--format", "json")[1])["rank"] for argv in argvs]

    def unused(*args):
        raise AssertionError("plain rank computed a rank variant")

    monkeypatch.setattr(counting, "g_rank_variants", unused)
    for argv, value in zip(argvs, want):
        assert run(capsys, *argv) == (0, f"{value}\n", ""), argv


_FRACTION_TEXT = st.one_of(
    st.integers(1, 70).flatmap(lambda k: st.integers(0, k).map(lambda h: f"{h}/{k}")),
    st.tuples(st.integers(0, 30), st.integers(1, 30), st.integers(2, 4)).map(
        lambda t: f"{t[0] * t[2]}/{t[1] * t[2]}"
    ),
    st.integers(1, 30).flatmap(lambda k: st.integers(k + 1, 2 * k + 1).map(lambda h: f"{h}/{k}")),
    st.integers(0, 9).map(lambda h: f"{h}/0"),
    st.sampled_from(["", "1/", "/2", "1/2/3", "-1/2", "1.5", "½", "one/two", " 1/2", "9" * 5000 + "/1"]),
)
_MAP_NAMES = st.sampled_from([entry.id for entry in catalog()] + ["not_a_map", ""])


@st.composite
def _argv(draw):
    """argv drawn from the subcommand grammar, valid and invalid parts mixed."""
    command = draw(st.sampled_from(["gen", "neighbors", "card", "rank", "map", "verify", "nope"]))
    if command == "verify":
        flags = draw(st.lists(st.sampled_from(["--all-maps", "--identities", "--neighbors"]), unique=True))
        return [command, *flags, "--max-n", str(draw(st.integers(-1, 3)))]
    n = draw(st.integers(-1, 60))
    argv = [command, "-n", str(n)]
    if draw(st.booleans()):
        argv += ["-m", str(draw(st.integers(-3, n + 3)))]
    if command == "map":
        argv += ["--name", draw(_MAP_NAMES)]
    elif draw(st.integers(0, 9)):
        argv += ["--kind", draw(st.sampled_from([kind.value for kind in SequenceKind] + ["nope"]))]
    if command in ("neighbors", "rank", "map"):
        argv.append(draw(_FRACTION_TEXT))
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["plain", "json", "csv", "xml"]))]
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_every_argv_gets_an_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
