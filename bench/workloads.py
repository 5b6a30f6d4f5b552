"""The four workloads: seeded inputs, one operation each, and its checker.

Every workload is a fixed list of operations, one "pass", built from the
seed before anything is timed.  Passes repeat until the measured time is
used up; caches are cleared at the start of every pass so that repeats
never find them warm.

Operations are compact tuples of ints and strings.  `run_op` performs one
through the package's public API, every call going through `call(name, fn,
*args)` so that a tracer can record a span around it, and returns the
answer together with the time its first output appeared.  `check` judges
the answer with the benchmark's own arithmetic in oracle.py; it is never
inside a timed interval.

Where the sizes of operations drive their cost (stream and count), a pass
is a fixed grid of sizes and parameters in a fixed order, and the seed
perturbs every value by a few per cent and picks the members queried.  The
work of a pass then barely depends on the seed, so runs with different
seeds measure the same thing.  query draws a large pool with fixed counts
of each operation type.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
import time

import fareysub as fs
import oracle
from fareysub import cli, counting, maps, verify

WORKLOADS = ("stream", "query", "count", "verify")
KIND = {kind.value: kind for kind in fs.SequenceKind}

VERIFY_MAX_N = 20
QUERY_POOL = 4096
WALK_STEPS = 3

# stream: (path, kind, n slot 0..12, m quantile, cli format).  The 13 n
# slots split [400, 1200] evenly, so every pass generates the same amount.
STREAM_PASS = (
    ("iterate_g", "full", 12, 0.5, ""),
    ("iterate_g", "gdiff", 4, 0.25, ""),
    ("iterate_f", "fnum", 9, 0.75, ""),
    ("generate_boolean", "bool", 6, 0.5, ""),
    ("generate_sequence", "full", 1, 0.5, ""),
    ("generate_sequence", "fnum", 3, 0.5, ""),
    ("generate_sequence", "gdiff", 11, 0.75, ""),
    ("generate_sequence", "bool", 10, 0.25, ""),
    ("generate_sequence", "bool-left", 8, 0.75, ""),
    ("generate_sequence", "bool-right", 5, 0.25, ""),
    ("gen", "gdiff", 7, 0.5, "plain"),
    ("gen", "bool", 2, 0.75, "json"),
    ("gen", "fnum", 0, 0.25, "csv"),
)
STREAM_N = (400, 1200)

# count: twelve card and twelve rank calls per pass on log-spaced grids.
# Slot i goes to kind CARD_KINDS[i % 6] (RANK_KINDS for rank), so every
# kind gets one small and one large order; gdiff takes the largest card
# orders, where its O(n^1.5) sum is the cost to watch.
COUNT_CARD_N = (1_000, 30_000)
COUNT_RANK_N = (100, 2_000)
CARD_KINDS = ("fnum", "full", "bool", "bool-left", "bool-right", "gdiff")
RANK_KINDS = ("full", "fnum", "gdiff", "bool", "bool-left", "bool-right")
COUNT_SLOTS = 12
# Card answers at orders up to this are checked against len(generate_sequence).
CARD_ENUM_MAX = 1_500

# query: shares of the operation mix, in per cent.  Every pool has exactly
# these counts, and nb and nonmember cycle through the six kinds, because
# the latencies of the operation types form tight, separate clusters: with
# drawn counts the median could fall between two clusters and jump from
# seed to seed.  With these shares the middle lies a few per cent of ranks
# above a gap between two clusters; worker.smoothed_quantile spans it.
QUERY_MIX = (("nb", 60), ("walk", 15), ("special", 5), ("map", 15), ("nonmember", 5))
QUERY_N_EXP = (2, 9)
ENDPOINT_SHARE = 0.03
MAX_JITTER = 0.02


def m_range(kind: str, n: int) -> tuple[int, int]:
    """Valid parameter range of a kind at order n (m is unused for full)."""
    if kind == "full":
        return 0, 0
    if kind == "fnum":
        return 1, n
    if kind == "gdiff":
        return 0, n - 1
    return 1, n - 1


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1 + rng.uniform(-MAX_JITTER, MAX_JITTER))


def _pick_m(rng: random.Random, kind: str, n: int, quantile: float) -> int:
    lo, hi = m_range(kind, n)
    q = min(1.0, max(0.0, quantile + rng.uniform(-MAX_JITTER, MAX_JITTER)))
    return lo + round(q * (hi - lo))


def _log_grid(lo: int, hi: int, slots: int) -> list[float]:
    return [lo * (hi / lo) ** ((i + 0.5) / slots) for i in range(slots)]


# ----------------------------------------------------------------- prepare


def prepare(workload: str, seed: int) -> list[tuple]:
    """One pass of operations for the workload, drawn from the seed.

    count uses generate_sequence to pick members and their expected ranks.
    """
    rng = random.Random(f"{workload}:{seed}")
    return {
        "stream": _prepare_stream,
        "query": _prepare_query,
        "count": _prepare_count,
        "verify": _prepare_verify,
    }[workload](rng)


def _prepare_stream(rng: random.Random) -> list[tuple]:
    lo, hi = STREAM_N
    divisors = oracle.squarefree_divisors(round(hi * (1 + MAX_JITTER)) + 1)
    ops = []
    for path, kind, slot, mq, fmt in STREAM_PASS:
        n = round(_jitter(rng, lo + (hi - lo) * (slot + 0.5) / len(STREAM_PASS)))
        m = _pick_m(rng, kind, n, mq)
        ops.append((path, kind, n, m, fmt, oracle.sieve_count(kind, n, m, divisors)))
    return ops


def draw_query_params(rng: random.Random, kind: str) -> tuple[int, int]:
    """n log-uniform over the query range, m uniform over the kind's range."""
    n = round(10 ** rng.uniform(*QUERY_N_EXP))
    return n, rng.randint(*m_range(kind, n))


def draw_query_op(rng: random.Random, code: str, kind: str = "full") -> tuple | None:
    """One query operation, or None when the draw is unusable.

    kind applies to nb and nonmember; the other codes fix their own family.
    """
    if code in ("nb", "nonmember"):
        n, m = draw_query_params(rng, kind)
        if code == "nonmember":
            h, k = oracle.draw_non_member(rng, n)
        elif rng.random() < ENDPOINT_SHARE:
            h, k = rng.choice(oracle.endpoints(kind))
        else:
            h, k = oracle.draw_member(rng, kind, n, m)
        return code, kind, n, m, h, k, 0
    if code == "walk":
        n, m = draw_query_params(rng, "gdiff")
        h, k = oracle.draw_member(rng, "gdiff", n, m)
        return None if (h, k) in ((0, 1), (1, 1)) else (code, "gdiff", n, m, h, k, WALK_STEPS)
    if code == "special":
        n, m = draw_query_params(rng, "bool")
        h, k = rng.choice(((1, 2), (1, 3), (2, 3)))
        ok = n != 2 * m and oracle.is_member("bool", n, m, h, k)
        return (code, "bool", n, m, h, k, 0) if ok else None
    entry = rng.choice(maps.catalog())
    n, m = draw_query_params(rng, "bool")
    if entry.constraint is not None and not entry.constraint(n, m):
        m = n - m  # flips 2m >= n into 2m <= n and back
    domain = entry.domain(n, m)
    h, k = oracle.draw_member(rng, domain.kind.value, domain.n, domain.m or 0)
    return code, entry.id, n, m, h, k, 0


def _prepare_query(rng: random.Random) -> list[tuple]:
    ops = []
    for code, share in QUERY_MIX:
        for i in range(QUERY_POOL * share // 100):
            while not (op := draw_query_op(rng, code, oracle.KINDS[i % len(oracle.KINDS)])):
                pass
            ops.append(op)
    rng.shuffle(ops)
    return ops


def _prepare_count(rng: random.Random) -> list[tuple]:
    card_grid = _log_grid(*COUNT_CARD_N, COUNT_SLOTS)
    divisors = oracle.squarefree_divisors(round(COUNT_CARD_N[1] * (1 + MAX_JITTER)) + 1)
    ops = []
    for i, base in enumerate(card_grid):
        kind = CARD_KINDS[i % len(CARD_KINDS)]
        n = round(_jitter(rng, base))
        m = _pick_m(rng, kind, n, _m_quantile(i))
        if n <= CARD_ENUM_MAX:
            want = len(fs.generate_sequence(fs.SequenceSpec(KIND[kind], n, m)))
        else:
            want = oracle.sieve_count(kind, n, m, divisors)
        ops.append(("card", kind, n, m, 0, 0, want))
    for i, base in enumerate(_log_grid(*COUNT_RANK_N, COUNT_SLOTS)):
        kind = RANK_KINDS[i % len(RANK_KINDS)]
        n = round(_jitter(rng, base))
        m = _pick_m(rng, kind, n, _m_quantile(i))
        seq = fs.generate_sequence(fs.SequenceSpec(KIND[kind], n, m))
        index = rng.randrange(1, len(seq))
        x = seq[index]
        ops.append(("rank", kind, n, m, x.num, x.den, index))
        del seq  # freed before the next, larger sequence is built
    return ops


def _m_quantile(i: int) -> float:
    """Fixed, well-spread parameter quantiles in [0.1, 0.9] for slot i."""
    return 0.1 + 0.8 * ((0.5 + 0.618034 * i) % 1.0)


def _prepare_verify(rng: random.Random) -> list[tuple]:
    # Deterministic on purpose: the workload is the fixed verification sweep.
    return [("verify", VERIFY_MAX_N)]


# --------------------------------------------------------------------- run


class Sink(io.TextIOBase):
    """Text stream standing in for stdout: keeps the text, notes the first write."""

    def __init__(self) -> None:
        self.chunks: list[str] = []
        self.first_ns = 0

    def write(self, text: str) -> int:
        if not self.first_ns:
            self.first_ns = time.perf_counter_ns()
        self.chunks.append(text)
        return len(text)

    def text(self) -> str:
        return "".join(self.chunks)


def _cli(call, argv: list[str]) -> tuple[tuple[int, str, str], int]:
    out, err = Sink(), Sink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call("cli.main", cli.main, argv)
    return (code, out.text(), err.text()), out.first_ns


def kind_args(kind: str, n: int, m: int) -> list[str]:
    args = ["--kind", kind, "-n", str(n)]
    return args if kind == "full" else args + ["-m", str(m)]


def _drain(make, *args):
    """Start an iterator, note when its first element arrives, collect the rest."""
    it = iter(make(*args))
    out = [next(it)]
    first_ns = time.perf_counter_ns()
    out.extend(it)
    return out, first_ns


def run_op(workload: str, call, op: tuple):
    """Perform one operation; returns (answer, ns of first output or 0)."""
    return _RUNNERS[workload](call, op)


def _run_stream(call, op):
    path, kind, n, m, fmt, _ = op
    if path == "gen":
        return _cli(call, ["gen", *kind_args(kind, n, m), "--format", fmt])
    if path == "generate_sequence":
        spec = call("sequences.SequenceSpec", fs.SequenceSpec, KIND[kind], n, m)
        return call("sequences.generate_sequence", fs.generate_sequence, spec), 0
    if path == "generate_boolean":
        return call("sequences.generate_boolean", fs.generate_boolean, n, m), 0
    make = fs.iterate_g if path == "iterate_g" else fs.iterate_f
    return call(f"sequences.{path}", _drain, make, n, m)


def _run_query(call, op):
    code, kind, n, m, h, k, extra = op
    x = call("fraction.Fraction", fs.Fraction, h, k)
    if code == "map":
        return call("maps.apply_named", fs.apply_named, kind, n, m, x), 0
    if code == "special":
        return call("neighbors.boolean_special_neighbors", fs.boolean_special_neighbors, n, m, x), 0
    if code == "walk":
        return _walk(call, n, m, x, extra), 0
    spec = call("sequences.SequenceSpec", fs.SequenceSpec, KIND[kind], n, m)
    if code == "nonmember":
        try:
            call("neighbors.sequence_neighbors", fs.sequence_neighbors, spec, x)
        except fs.DomainError as err:
            return err, 0
        return None, 0
    return call("neighbors.sequence_neighbors", fs.sequence_neighbors, spec, x), 0


def _walk(call, n, m, x, steps):
    """x, its successor, then up to `steps` pair steps forward and backward."""
    succ = call("neighbors.g_successor", fs.g_successor, n, m, x)
    chain = [x, succ]
    while len(chain) < steps + 2 and chain[-1] != fs.ONE:
        chain.append(call("neighbors.g_next_from_pair", fs.g_next_from_pair, n, m, chain[-2], chain[-1]))
    back = [x, succ]
    while len(back) < steps + 2 and back[0] != fs.ZERO:
        back.insert(0, call("neighbors.g_prev_from_pair", fs.g_prev_from_pair, n, m, back[0], back[1]))
    return back[:-2] + chain


def _run_count(call, op):
    cmd, kind, n, m, h, k, _ = op
    argv = [cmd, *kind_args(kind, n, m)]
    if cmd == "rank":
        argv.append(f"{h}/{k}")
    return _cli(call, argv + ["--format", "json"])


def _run_verify(call, op):
    return _cli(call, ["verify", "--max-n", str(op[1])])


_RUNNERS = {"stream": _run_stream, "query": _run_query, "count": _run_count, "verify": _run_verify}


# ------------------------------------------------------------------- check


def check(workload: str, op: tuple, answer) -> tuple[str | None, int, int, int]:
    """Judge one answer: (error or None, operations, failed operations, elements).

    An operation is one sequence, call or CLI call, except on verify, where
    it is one check the call reports.  Elements are the fractions delivered
    on stream and query, the results on count and the checks on verify.
    """
    error, ops, elems = _CHECKERS[workload](op, answer)
    if workload == "verify":
        return error, ops, ops - elems, elems
    return error, ops, int(error is not None), elems


def _parse_gen(fmt: str, text: str):
    if fmt == "plain":
        return [tuple(map(int, tok.split("/"))) for tok in text.split()]
    if fmt == "json":
        return [tuple(map(int, tok.split("/"))) for tok in json.loads(text)["fractions"]]
    lines = text.splitlines()
    if not lines or lines[0] != "num,den":
        raise ValueError(f"csv header is {lines[:1]}")
    return [tuple(map(int, line.split(","))) for line in lines[1:]]


def _check_stream(op, answer):
    path, kind, n, m, fmt, want = op
    if path == "gen":
        code, text, err = answer
        if code != 0:
            return f"gen exited {code}: {err.strip()}", 1, 0
        try:
            pairs = _parse_gen(fmt, text)
        except ValueError as exc:
            return f"unparseable {fmt} output: {exc}", 1, 0
    else:
        pairs = [(f.num, f.den) for f in answer]
    error = oracle.check_chain(kind, n, m, pairs, want)
    return (f"{path} {kind} n={n} m={m}: {error}" if error else None), 1, len(pairs)


def _pair(f):
    return None if f is None else (f.num, f.den)


def _check_query(op, answer):
    code, kind, n, m, h, k, extra = op
    where = f"{code} {kind} n={n} m={m} x={h}/{k}"
    if code == "nonmember":
        ok = isinstance(answer, fs.DomainError)
        return (None if ok else f"{where}: no DomainError"), 1, 0
    if code == "nb":
        error = oracle.check_neighbors(kind, n, m, (h, k), _pair(answer.predecessor), _pair(answer.successor))
        delivered = (answer.predecessor is not None) + (answer.successor is not None)
    elif code == "special":
        pred, succ = _pair(answer[0]), _pair(answer[1])
        error = oracle.check_adjacent(kind, n, m, pred, (h, k)) or oracle.check_adjacent(
            kind, n, m, (h, k), succ
        )
        delivered = 2
    elif code == "walk":
        chain = [_pair(f) for f in answer]
        error = None if (h, k) in chain else "x missing from the walk"
        for a, b in zip(chain, chain[1:]):
            error = error or oracle.check_adjacent(kind, n, m, a, b)
        first, last = oracle.endpoints(kind)
        short = len(chain) < 2 * extra + 2
        if not error and short and first not in chain and last not in chain:
            error = f"walk of {len(chain)} stopped before an end"
        delivered = len(chain) - 1
    else:
        error = _check_map(kind, n, m, (h, k), _pair(answer))
        delivered = 1
    return (f"{where}: {error}" if error else None), 1, delivered


def _check_map(map_id, n, m, x, y):
    entry = maps.get_map(map_id)
    cod = entry.codomain(n, m)
    if not oracle.is_member(cod.kind.value, cod.n, cod.m or 0, *y):
        return f"image {y} is outside the codomain"
    mat = entry.matrix
    back = oracle.invert_image((mat.a, mat.b, mat.c, mat.d), y)
    if back != x:
        return f"image {y} returns to {back}"
    return None


def _check_count(op, answer):
    cmd, kind, n, m, h, k, want = op
    code, text, err = answer
    where = f"{cmd} {kind} n={n} m={m}" + (f" x={h}/{k}" if cmd == "rank" else "")
    if code != 0:
        return f"{where}: exit {code}: {err.strip()}", 1, 1
    key = "cardinality" if cmd == "card" else "rank"
    try:
        got = json.loads(text)[key]
    except (ValueError, KeyError) as exc:
        return f"{where}: unparseable output ({exc})", 1, 1
    return (None if got == want else f"{where}: got {got}, want {want}"), 1, 1


_ROW = re.compile(r"^(?P<name>.+?)\s+(?P<checks>\d+)\s+(?P<failures>\d+)\s+(?P<status>ok|FAIL.*)$")
_TOTAL = re.compile(r"^all (\d+) checks passed$")


def parse_verify_table(text: str) -> tuple[int, int, int | None]:
    """(checks, failures, announced total) summed over the table rows."""
    checks = failures = 0
    total = None
    for line in text.splitlines()[1:]:
        if row := _ROW.match(line):
            checks += int(row["checks"])
            failures += int(row["failures"])
        elif done := _TOTAL.match(line):
            total = int(done.group(1))
    return checks, failures, total


def _check_verify(op, answer):
    """Elements here are the checks that passed; a bad call fails them all."""
    code, text, err = answer
    checks, failures, total = parse_verify_table(text)
    if code == 0 and not failures and total == checks and checks:
        return None, checks, checks
    passed = checks - failures if code == 3 and failures else 0
    detail = f"exit {code}, {failures} of {checks} failed, total line {total}"
    return f"verify --max-n {op[1]}: {detail}: {err.strip()}", max(checks, 1), passed


_CHECKERS = {"stream": _check_stream, "query": _check_query, "count": _check_count, "verify": _check_verify}


# ---------------------------------------------------------------- siblings


def siblings(workload: str, op: tuple) -> list[tuple[str, object, tuple]]:
    """Direct calls that redo the work a CLI operation did below the cli layer.

    Only the traced run makes them, after the operation, to split the CLI
    call's time between cli and the module doing the work.
    """
    if workload == "verify":
        return [
            ("verify.map_suite", verify.map_suite, (op[1],)),
            ("verify.identity_suite", verify.identity_suite, (300, min(op[1], 30), op[1])),
            ("verify.neighbor_suite", verify.neighbor_suite, (op[1],)),
        ]
    if workload == "stream" and op[0] == "gen":
        spec = fs.SequenceSpec(KIND[op[1]], op[2], op[3])
        return [("sequences.generate_sequence", fs.generate_sequence, (spec,))]
    if workload != "count":
        return []
    cmd, kind, n, m, h, k, _ = op
    if cmd == "rank":
        if kind == "gdiff":
            return [("counting.g_rank", counting.g_rank, (n, m, fs.Fraction(h, k)))]
        spec = fs.SequenceSpec(KIND[kind], n, m)
        return [("sequences.enumerate_sequence", fs.enumerate_sequence, (spec,))]
    card = {
        "full": ("full_cardinality", (n,)),
        "fnum": ("f_cardinality", (n, m)),
        "gdiff": ("g_cardinality", (n, m)),
        "bool": ("boolean_cardinality", (n, m)),
        "bool-left": ("f_cardinality", (n - m, m)),
        "bool-right": ("f_cardinality", (m, n - m)),
    }
    name, args = card[kind]
    return [(f"counting.{name}", getattr(counting, name), args)]


def clear_caches() -> None:
    """Empty every functools cache in the package, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name == "fareysub" or name.startswith("fareysub."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    value.cache_clear()
