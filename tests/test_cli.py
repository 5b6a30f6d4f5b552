import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fareysub import SequenceKind, SequenceSpec, generate_sequence, parse_fraction
from fareysub.cli import main

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
    assert payload["metadata"]["variants"] == {
        "phi-sum": 9,
        "split-phi-sum": 9,
        "moebius-sum": 9,
    }


def test_rank_examples(capsys):
    assert run(capsys, "rank", "--kind", "gdiff", "-n", "6", "-m", "4", "1/1")[:2] == (0, "8\n")
    assert run(capsys, "rank", "--kind", "gdiff", "-n", "6", "-m", "4", "1/2")[:2] == (0, "2\n")


def test_rank_other_kinds_scan_and_say_so(capsys):
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
    # --max-order no longer bounds anything but is still accepted.
    argv = ("rank", "--kind", "fnum", "-n", "20000", "-m", "3", "1/1", "--max-order", "10")
    assert run(capsys, *argv)[:2] == (0, "43331\n")


def test_rank_domain_errors(capsys):
    code, _, _ = run(capsys, "rank", "--kind", "gdiff", "-n", "6", "-m", "4", "0/1")
    assert code == 2
    code, _, _ = run(capsys, "rank", "--kind", "full", "-n", "6", "1/7")
    assert code == 2


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


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "fareysub" in out
