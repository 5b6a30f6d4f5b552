"""Per-layer probes: each times public functions of one module directly.

Inputs are drawn from the run's seed in the same way as the workloads
draw theirs.  Every probe that touches a cached function starts from cold
caches, as a fresh CLI call does.  Each metric's docstring line in run_all
names the end-to-end metric it should move.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter_ns

import fareysub as fs
import host
import oracle
import workloads
from fareysub import cli, counting, maps, verify
from source import SRC

GEN_N = 600
ENUM_N = 300
RANK_CLI_N = 300
VERIFY_MAP_N = 14
SUBPROCESS_RUNS = 5
BATCH = 1000
REPEATS = 5


def host_calib_ms() -> float:
    """The host calibration loop of host.py; its drift between runs is the host's, not the code's."""
    return statistics.median(host.loop_ns() for _ in range(3 * REPEATS)) / 1e6


def _per_call_ns(fn, argsets: list[tuple]) -> float:
    """Median over repeats of a batch's time, divided by the batch size."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        for args in argsets:
            fn(*args)
        times.append(perf_counter_ns() - start)
    return statistics.median(times) / len(argsets)


def _once_ns(fn, *args) -> int:
    workloads.clear_caches()
    start = perf_counter_ns()
    fn(*args)
    return perf_counter_ns() - start


def _mid_m(kind: str, n: int) -> int:
    """Sized probes use the middle of the parameter range, so runs compare."""
    return sum(workloads.m_range(kind, n)) // 2


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares exponent of time against n on log-log axes."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _member_queries(rng, kinds, count: int) -> list[tuple]:
    """(spec, x) pairs drawn as the query workload draws them."""
    out = []
    for _ in range(count):
        kind = rng.choice(kinds)
        n, m = workloads.draw_query_params(rng, kind)
        x = fs.Fraction(*oracle.draw_member(rng, kind, n, m))
        out.append((fs.SequenceSpec(workloads.KIND[kind], n, m), x))
    return out


def _fraction_probes(rng) -> dict[str, float]:
    pairs = []
    while len(pairs) < BATCH:
        k = round(10 ** rng.uniform(*workloads.QUERY_N_EXP))
        h = rng.randint(0, k)
        if math.gcd(h, k) == 1:
            pairs.append((h, k))
    scaled = [(h * g, k * g) for (h, k), g in zip(pairs, (rng.randint(2, 9) for _ in pairs))]
    values = [fs.Fraction(h, k) for h, k in pairs]
    texts = [(f"{h}/{k}",) for h, k in pairs]
    return {
        "fraction.construct_ns": _per_call_ns(fs.Fraction, pairs),
        "fraction.make_fraction_ns": _per_call_ns(fs.make_fraction, scaled),
        "fraction.lt_ns": _per_call_ns(lambda a, b: a < b, list(zip(values, values[1:]))),
        "fraction.parse_ns": _per_call_ns(fs.parse_fraction, texts),
    }


def _sequence_probes(rng) -> dict[str, float]:
    out = {}
    for kind in oracle.KINDS:
        m = _mid_m(kind, GEN_N)
        spec = fs.SequenceSpec(workloads.KIND[kind], GEN_N, m)
        start = perf_counter_ns()
        size = len(fs.generate_sequence(spec))
        out[f"sequences.gen_ns_per_elem.{kind}"] = (perf_counter_ns() - start) / size
    firsts = []
    for _ in range(3):
        start = perf_counter_ns()
        next(iter(fs.iterate_f(1000, _mid_m("fnum", 1000))))
        firsts.append(perf_counter_ns() - start)
    out["sequences.iterate_f_first_us"] = statistics.median(firsts) / 1e3
    spec = fs.SequenceSpec(fs.SequenceKind.FULL, ENUM_N)
    start = perf_counter_ns()
    size = len(fs.enumerate_sequence(spec))
    out["sequences.enumerate_ns_per_elem"] = (perf_counter_ns() - start) / size
    out["sequences.member_ns"] = _per_call_ns(fs.member, _member_queries(rng, oracle.KINDS, BATCH))
    return out


def _neighbor_probes(rng) -> dict[str, float]:
    out = {}
    for kind in oracle.KINDS:
        queries = _member_queries(rng, (kind,), BATCH // 4)
        out[f"neighbors.sequence_neighbors_us.{kind}"] = _per_call_ns(fs.sequence_neighbors, queries) / 1e3
    pairs = []
    while len(pairs) < BATCH // 4:
        n, m = workloads.draw_query_params(rng, "gdiff")
        h, k = oracle.draw_member(rng, "gdiff", n, m)
        if 0 < h < k:
            x = fs.Fraction(h, k)
            pairs.append((n, m, x, fs.g_successor(n, m, x)))
    out["neighbors.pair_step_us"] = _per_call_ns(fs.g_next_from_pair, [p for p in pairs if p[3] != fs.ONE]) / 1e3
    anchors = [op for op in (workloads.draw_query_op(rng, "special") for _ in range(BATCH // 2)) if op]
    anchors = [(n, m, fs.Fraction(h, k)) for _, _, n, m, h, k, _ in anchors]
    out["neighbors.special_anchor_us"] = _per_call_ns(fs.boolean_special_neighbors, anchors) / 1e3
    return out


def _counting_probes(rng) -> dict[str, float]:
    out = {}
    card = []
    for n in (1_000, 10_000, 30_000):
        ns = _once_ns(counting.g_cardinality, n, n // 2)
        card.append((n, ns))
        out[f"counting.g_cardinality_ms.n{n}"] = ns / 1e6
    out["counting.g_cardinality_slope"] = _slope(card)
    out["counting.f_cardinality_ms.n30000"] = _once_ns(counting.f_cardinality, 30_000, 15_000) / 1e6
    out["counting.boolean_cardinality_ms.n30000"] = _once_ns(counting.boolean_cardinality, 30_000, 15_000) / 1e6
    rank = []
    for n in (250, 500, 1_000, 2_000):
        m = n // 2
        h, k = (0, 1)
        while (h, k) == (0, 1):
            h, k = oracle.draw_member(rng, "gdiff", n, m)
        rank.append((n, _once_ns(counting.g_rank, n, m, fs.Fraction(h, k))))
    out["counting.g_rank_ms.n1000"] = rank[2][1] / 1e6
    out["counting.g_rank_slope"] = _slope(rank)
    return out


def _map_probes(rng) -> dict[str, float]:
    catalog = maps.catalog()
    argsets = [workloads.draw_query_op(rng, "map") for _ in range(BATCH // 2)]
    argsets = [(map_id, n, m, fs.Fraction(h, k)) for _, map_id, n, m, h, k, _ in argsets]
    start = perf_counter_ns()
    for entry in catalog:
        pairs = maps.valid_parameter_pairs(entry.id, VERIFY_MAP_N)
        n, m = max(p for p in pairs if p[0] == VERIFY_MAP_N)
        maps.verify_map(entry.id, n, m)
    return {
        "maps.apply_named_us": _per_call_ns(fs.apply_named, argsets) / 1e3,
        "maps.verify_map_ms": (perf_counter_ns() - start) / 1e6,
    }


def _verify_probes() -> dict[str, float]:
    """The three suites in the CLI's order, sharing the oracle cache as it does.

    The oracle's share is the time to enumerate, once and cold, every
    sequence the suites asked the memoized oracle for.
    """
    specs = set()
    original = verify.cached_sequence

    def recording(spec):
        specs.add(spec)
        return original(spec)

    n = workloads.VERIFY_MAX_N
    suites = (
        ("maps", verify.map_suite, (n,)),
        ("identities", verify.identity_suite, (300, min(n, 30), n)),
        ("neighbors", verify.neighbor_suite, (n,)),
    )
    out = {}
    checks = 0
    workloads.clear_caches()
    verify.cached_sequence = recording
    try:
        for name, suite, args in suites:
            start = perf_counter_ns()
            rows = suite(*args)
            out[f"verify.suite_s.{name}"] = (perf_counter_ns() - start) / 1e9
            checks += sum(row.checks for row in rows)
    finally:
        verify.cached_sequence = original
    start = perf_counter_ns()
    for spec in specs:
        fs.enumerate_sequence(spec)
    oracle_s = (perf_counter_ns() - start) / 1e9
    out["verify.checks"] = checks
    out["verify.oracle_share"] = oracle_s / sum(out[f"verify.suite_s.{name}"] for name, _, _ in suites)
    return out


def _cli_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(workloads.Sink()), contextlib.redirect_stderr(workloads.Sink()):
        return cli.main(argv)


def _cli_probes(rng) -> dict[str, float]:
    out = {}
    m = _mid_m("gdiff", GEN_N)
    spec = fs.SequenceSpec(fs.SequenceKind.GDIFF, GEN_N, m)
    argv = ["gen", "--kind", "gdiff", "-n", str(GEN_N), "-m", str(m)]
    size = len(fs.generate_sequence(spec))
    gen_ns = statistics.median(_once_ns(fs.generate_sequence, spec) for _ in range(3))
    cli_ns = statistics.median(_once_ns(_cli_main, argv) for _ in range(3))
    out["cli.gen_overhead_ns_per_elem"] = (cli_ns - gen_ns) / size
    for kind in oracle.KINDS:
        m = _mid_m(kind, RANK_CLI_N)
        h, k = (0, 1)
        while (h, k) == (0, 1):
            h, k = oracle.draw_member(rng, kind, RANK_CLI_N, m)
        argv = ["rank", *workloads.kind_args(kind, RANK_CLI_N, m), f"{h}/{k}", "--format", "json"]
        out[f"cli.rank_ms.{kind}"] = statistics.median(_once_ns(_cli_main, argv) for _ in range(3)) / 1e6
    walls, rss = [], []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "fareysub.cli", "card", "--kind", "full", "-n", "10"]
    for _ in range(SUBPROCESS_RUNS):
        start = perf_counter_ns()
        child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        walls.append(perf_counter_ns() - start)
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {child.returncode}")
        rss.append(usage.ru_maxrss / 1024)
    out["cli.subprocess_ms"] = statistics.median(walls) / 1e6
    out["cli.subprocess_rss_mb"] = statistics.median(rss)
    return out


def run_all(rng) -> dict[str, float]:
    """Every per-layer probe metric except the trace-derived ones."""
    out = {}
    out.update(_fraction_probes(rng))  # -> stream elems_per_s, query op_p50_ms
    out.update(_sequence_probes(rng))  # -> stream elems_per_s, first_out_ms, peak_rss_mb; verify ops_per_s
    out.update(_neighbor_probes(rng))  # -> query op_p50_ms, op_tail_ms
    out.update(_counting_probes(rng))  # -> count ops_per_s, op_p50_ms, op_tail_ms
    out.update(_map_probes(rng))  # -> query op_p50_ms; verify ops_per_s
    out.update(_verify_probes())  # -> verify ops_per_s
    out.update(_cli_probes(rng))  # -> stream first_out_ms; count op_p50_ms; setup_s
    return out
