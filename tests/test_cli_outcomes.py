"""Every call of a fixed command-line grid prints and exits as recorded.

The grid runs `card` in both formats and `gen` in all three for every
kind, `rank` and `neighbors` in both formats for every kind, and `map` in
both formats for every catalog id.  Each takes every order n from -1 up
to its own bound in MAX_ORDER and m absent or in -3..n+3; `rank`,
`neighbors` and `map` take every reduced h/k with k <= n + 1, and in
plain format with -m 1 a few malformed fractions.  The bounds keep the
whole grid near 40,000 calls, about 5 s; `map` has the lowest because it
has 18 ids.  No argv of the grid is rejected by argparse itself, whose
messages differ between Python versions.

Each call runs in process through `cli.main`.  Its argv, exit code,
stdout and stderr feed one SHA-256 per (subcommand, kind or map id, n),
recorded in `cli_outcomes.txt` together with one hex byte per call, so
that a mismatch names the first call whose outcome changed.  Running this
module as a script prints the record afresh:

    PYTHONPATH=src python tests/test_cli_outcomes.py > tests/cli_outcomes.txt
"""

import contextlib
import hashlib
import io
import math
import pathlib

import pytest

from fareysub import SequenceKind, catalog
from fareysub.cli import main

RECORD = pathlib.Path(__file__).with_name("cli_outcomes.txt")
MAX_ORDER = {"card": 8, "gen": 8, "rank": 7, "neighbors": 7, "map": 4}
SUBCOMMANDS = list(MAX_ORDER)
MALFORMED = ["2/4", "1/0", "3/2", "1/2x"]


def _m_options(n: int) -> list[list[str]]:
    return [[], *(["-m", str(m)] for m in range(-3, n + 4))]


def _group_argvs(command: str, key: str, n: int) -> list[list[str]]:
    """The argvs of one group, in a fixed order; key is a kind, or a map id for `map`."""
    head = [command, "--name" if command == "map" else "--kind", key, "-n", str(n)]
    formats = ["plain", "json", "csv"] if command == "gen" else ["plain", "json"]
    if command in ("card", "gen"):
        fractions = [[]]
    else:
        fractions = [
            [f"{h}/{k}"] for k in range(1, n + 2) for h in range(k + 1) if math.gcd(h, k) == 1
        ]
    argvs = [
        [*head, *m, *x, "--format", fmt]
        for m in _m_options(n)
        for x in fractions
        for fmt in formats
    ]
    if command not in ("card", "gen"):
        argvs += [[*head, "-m", "1", x] for x in MALFORMED]
    return argvs


def groups() -> list[tuple[str, list[list[str]]]]:
    """Every group of the grid as (its name, its argvs)."""
    keys = {command: [kind.value for kind in SequenceKind] for command in SUBCOMMANDS}
    keys["map"] = [entry.id for entry in catalog()]
    return [
        (f"{command} {key} {n}", _group_argvs(command, key, n))
        for command in SUBCOMMANDS
        for key in keys[command]
        for n in range(-1, MAX_ORDER[command] + 1)
    ]


def outcome(argv: list[str]) -> bytes:
    """argv, exit code, stdout and stderr of one in-process call, as one record."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return "\x1e".join([" ".join(argv), str(code), out.getvalue(), err.getvalue()]).encode()


def record_line(name: str, argvs: list[list[str]]) -> str:
    """The group's name, the SHA-256 of its outcomes and one hex byte per call."""
    digest = hashlib.sha256()
    marks = []
    for argv in argvs:
        one = outcome(argv)
        digest.update(one + b"\x1d")
        marks.append(hashlib.sha256(one).hexdigest()[:2])
    return f"{name} {digest.hexdigest()} {''.join(marks)}"


def _recorded() -> dict[str, str]:
    lines = RECORD.read_text().splitlines()
    return {" ".join(line.split()[:3]): line for line in lines}


def _first_change(argvs: list[list[str]], recorded: str, current: str) -> str:
    """The first call of a group whose outcome mark differs from the record."""
    old_marks, new_marks = recorded.split()[4], current.split()[4]
    if len(old_marks) != len(new_marks):
        return f"the group has {len(new_marks) // 2} calls, the record {len(old_marks) // 2}"
    for i, argv in enumerate(argvs):
        if old_marks[2 * i : 2 * i + 2] != new_marks[2 * i : 2 * i + 2]:
            return f"first changed call: fareysub {' '.join(argv)} -> {outcome(argv)!r}"
    return "no single call's mark changed; compare the group with the recorded version"


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_cli_outcomes_match_the_record(command):
    recorded = {name: line for name, line in _recorded().items() if name.startswith(command + " ")}
    current = {name: argvs for name, argvs in groups() if name.startswith(command + " ")}
    assert sorted(current) == sorted(recorded), "the grid's groups differ from the record"
    for name, argvs in current.items():
        line = record_line(name, argvs)
        if line != recorded[name]:
            pytest.fail(f"{name}: {_first_change(argvs, recorded[name], line)}")


if __name__ == "__main__":
    print("\n".join(record_line(name, argvs) for name, argvs in groups()))
