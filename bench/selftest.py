"""Self-test of the benchmark: its checkers must catch wrong answers.

    python3 bench/selftest.py

Runs every workload at a tiny size without timing, requiring every answer
to pass, then feeds each checker answers that are wrong in one known way
and requires each to be flagged.  It also checks the benchmark's own
counting against the package's generators.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import random
import sys

from source import use_checkout_source

use_checkout_source()

import fareysub as fs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from fareysub import NeighborResult  # noqa: E402

TINY = {
    "STREAM_N": (12, 40),
    "COUNT_CARD_N": (20, 60),
    "COUNT_RANK_N": (10, 40),
    "QUERY_POOL": 300,
    "QUERY_N_EXP": (1, 4),
    "VERIFY_MAX_N": 6,
}

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def direct(name, fn, *args):
    return fn(*args)


def answer_of(workload: str, op: tuple):
    return workloads.run_op(workload, direct, op)[0]


def flagged(workload: str, op: tuple, answer) -> bool:
    try:
        error, _, failed, _ = workloads.check(workload, op, answer)
    except Exception:  # a checker that chokes on a bad answer still rejects it
        return True
    return error is not None and failed > 0


def tiny_runs() -> dict[str, list[tuple]]:
    """Every workload once at tiny size; all answers must pass."""
    passes = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.prepare(workload, seed=7)
        bad = [op for op in ops if flagged(workload, op, answer_of(workload, op))]
        expect(not bad, f"{workload}: {len(ops)} tiny operations all pass ({bad[:1]})")
        passes[workload] = ops
    return passes


def sieve_matches_generators() -> None:
    divisors = oracle.squarefree_divisors(40)
    wrong = []
    for kind in oracle.KINDS:
        for n in range(2, 31):
            lo, hi = workloads.m_range(kind, n)
            for m in range(lo, hi + 1):
                seq = fs.generate_sequence(fs.SequenceSpec(workloads.KIND[kind], n, m))
                if oracle.sieve_count(kind, n, m, divisors) != len(seq):
                    wrong.append((kind, n, m))
    expect(not wrong, f"sieve counts equal len(generate_sequence) for n <= 30 ({wrong[:3]})")


def sampler_is_uniform() -> None:
    rng = random.Random(3)
    kind, n, m = "bool", 9, 4
    members = fs.generate_sequence(fs.SequenceSpec(fs.SequenceKind.BOOLEAN, n, m))
    counts = dict.fromkeys(((f.num, f.den) for f in members), 0)
    draws = 200 * len(counts)
    for _ in range(draws):
        counts[oracle.draw_member(rng, kind, n, m)] += 1
    spread = max(counts.values()) / min(counts.values())
    expect(spread < 1.6, f"draw_member hits all {len(counts)} members evenly (max/min {spread:.2f})")


def stream_wrong(ops: list[tuple]) -> None:
    for op in ops:
        answer = answer_of("stream", op)
        if op[0] == "gen":
            code, text, err = answer
            if op[4] == "plain":
                tokens = text.split()
                bad = (code, " ".join(tokens[:2] + tokens[3:]) + "\n", err)
            elif op[4] == "json":
                payload = json.loads(text)
                del payload["fractions"][2]
                bad = (code, json.dumps(payload), err)
            else:
                lines = text.splitlines()
                bad = (code, "\n".join(lines[:2] + lines[3:]), err)
        else:
            bad = list(answer[:2]) + list(answer[3:])
        expect(flagged("stream", op, bad), f"stream {op[0]} {op[1]} {op[4]}: a dropped term is flagged")


def query_wrong(ops: list[tuple]) -> None:
    seen = set()
    for op in ops:
        code, kind, n, m, h, k, extra = op
        answer = answer_of("query", op)
        if code == "nb" and answer.successor is not None and answer.predecessor is not None:
            spec = fs.SequenceSpec(workloads.KIND[kind], n, m)
            further = fs.sequence_neighbors(spec, answer.successor).successor
            if further is None:
                continue
            bad = NeighborResult(answer.target, answer.predecessor, further)
        elif code == "walk":
            bad = answer[:1] + answer[2:]
        elif code == "special":
            bad = (answer[0], fs.mediant(answer[0], answer[1]))
        elif code == "map":
            bad = fs.mirror(answer) if answer != fs.HALF else fs.ONE
        elif code == "nonmember":
            bad = None
        else:
            continue
        if code not in seen:
            seen.add(code)
            expect(flagged("query", op, bad), f"query {code}: a wrong answer is flagged")
    expect(seen == {c for c, _ in workloads.QUERY_MIX}, f"query: every operation kind was tried ({sorted(seen)})")


def count_wrong(ops: list[tuple]) -> None:
    for cmd, delta in (("rank", +1), ("card", -1)):
        op = next(op for op in ops if op[0] == cmd)
        code, text, err = answer_of("count", op)
        payload = json.loads(text)
        key = "rank" if cmd == "rank" else "cardinality"
        payload[key] += delta
        expect(flagged("count", op, (code, json.dumps(payload), err)), f"count {cmd} {delta:+d} is flagged")
        expect(flagged("count", op, (2, "", "domain error")), f"count {cmd}: exit code 2 is flagged")


def verify_wrong(ops: list[tuple]) -> None:
    op = ops[0]
    code, text, err = answer_of("verify", op)
    lines = text.splitlines()
    row = lines[1]
    broken = row[: row.rindex("0  ok")] + "1  FAIL (n=3 m=1)"
    bad_text = "\n".join([lines[0], broken] + lines[2:])
    expect(flagged("verify", op, (3, bad_text, "1 of N checks failed")), "verify: a failed row is flagged")
    expect(flagged("verify", op, (0, "\n".join(lines[:-1]), err)), "verify: a missing total line is flagged")


def main() -> int:
    for name, value in TINY.items():
        setattr(workloads, name, value)
    passes = tiny_runs()
    sieve_matches_generators()
    sampler_is_uniform()
    stream_wrong(passes["stream"])
    query_wrong(passes["query"])
    count_wrong(passes["count"])
    verify_wrong(passes["verify"])
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
