import json

import pytest

from fareysub import parse_fraction
from fareysub.cli import main


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
