"""Measuring process of one benchmark run; started by run.py, never by hand.

Reads a job as JSON on stdin (workload, seed, seconds, trace, one pass of
operations, the time run.py spent preparing them) and writes one JSON
object on stdout.  Being a fresh interpreter, it starts with every package
cache cold and its peak RSS holds only the package's work, the compact
inputs and the checkers.

Untraced, it repeats whole passes until `seconds` of wall time have gone,
times the host calibration loop between operations, and reports the
end-to-end metrics scaled to the reference host (host.py).  Traced, it
runs the per-layer probes, then the same passes once without and once
with spans, and reports the per-layer metrics as measured.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import resource
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

from source import ROOT, use_checkout_source

use_checkout_source()

import host  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

MODULES = ("fraction", "sequences", "neighbors", "counting", "maps", "verify", "cli")
KEPT_PASSES = 15
TAIL_SAMPLES = 1000
MEDIAN_BANDWIDTH = 0.1
TRACE_SECONDS = 4.0
MAX_ERRORS_SHOWN = 5
TRACE_DIR = ROOT / "bench" / "out"


def direct(name, fn, *args):
    return fn(*args)


class Stats:
    """Counts, timed totals, latencies and the first failures of a phase.

    Each operation's latency and first-output time are kept for a uniform
    sample of KEPT_PASSES passes (all of them in a shorter run), in
    fixed-size tables: memory does not grow with throughput, and the kept
    passes span the whole run.  Every time is kept with the calibration
    mark it was measured at (host.Calibration.mark), so that it can be
    scaled by the host's speed around it; timed totals are kept per mark
    for the same reason.
    """

    def __init__(self, slots: int, rng: random.Random) -> None:
        self.slots = slots
        self.rng = rng
        self.latency = array("q", bytes(8 * slots * KEPT_PASSES))
        self.first = array("q", bytes(8 * slots * KEPT_PASSES))
        self.marks = array("q", bytes(8 * slots * KEPT_PASSES))
        self.row: int | None = 0
        self.seen = self.passes = 0
        self.timed_ns = self.ops = self.elems = self.failed = 0
        self.timed_by_mark: dict[int, int] = defaultdict(int)
        self.errors: list[str] = []

    def add(
        self, slot: int, latency: int, first: int, mark: int, ops: int, failed: int, elems: int, error: str | None
    ) -> None:
        self.timed_ns += latency
        self.timed_by_mark[mark] += latency
        self.ops += ops
        self.failed += failed
        self.elems += elems
        if error and len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(error)
        if self.row is not None:
            self.latency[self.row * self.slots + slot] = latency
            self.first[self.row * self.slots + slot] = first
            self.marks[self.row * self.slots + slot] = mark
        self.seen += 1

    def end_pass(self) -> None:
        self.passes += 1
        row = self.passes if self.passes < KEPT_PASSES else self.rng.randrange(self.passes + 1)
        self.row = row if row < KEPT_PASSES else None

    def scaled_timed_s(self, scale) -> float:
        """Total timed seconds, each stretch scaled by scale(mark)."""
        return sum(ns * scale(mark) for mark, ns in self.timed_by_mark.items()) / 1e9

    def per_op_ms(self, table: array, scale) -> list[float]:
        """Each operation's median over kept passes of its time scaled by scale(mark)."""
        kept = min(self.passes, KEPT_PASSES)
        at = [[p * self.slots + i for p in range(kept)] for i in range(self.slots)]
        return [statistics.median(table[j] * scale(self.marks[j]) for j in cells) / 1e6 for cells in at]

    def typical_ms(self, table: array, scale) -> float:
        """Smoothed median over operations of each one's median over kept passes."""
        return smoothed_quantile(self.per_op_ms(table, scale), 0.5, MEDIAN_BANDWIDTH)

    def tail_ms(self, scale) -> tuple[float, str]:
        """Latency at the highest percentile with at least 10 samples beyond it
        in two passes or TAIL_SAMPLES operations, whichever is fewer, taken
        over the operations of a pass, each at its median over kept passes,
        by the kernel estimate of smoothed_quantile.

        The percentile depends only on the pass size, not on how many passes
        a run made: a pass holds a few distinct operations, and a percentile
        that moved with the pass count would pick a different one.  Taking
        each operation at its median keeps a stall of the host inside one
        call from setting the value, and the cap at p99 keeps a handful of
        the seed's costliest inputs from setting it: what it measures is how
        slow the slow inputs of the mix are.  With passes of 5 operations or
        fewer there is no such percentile, and the median stands in.
        """
        if self.slots <= 5:
            return self.typical_ms(self.latency, scale), f"median of {self.slots} operations, too few for a tail"
        share = 10 / min(2 * self.slots, TAIL_SAMPLES)
        tail = smoothed_quantile(self.per_op_ms(self.latency, scale), 1 - share, min(MEDIAN_BANDWIDTH, share / 2))
        kept = min(self.passes, KEPT_PASSES)
        return tail, f"p{100 * (1 - share):.2f} of {self.slots} operations, each the median of {kept} passes"


def smoothed_quantile(values, q: float, width: float) -> float:
    """Kernel estimate of the q quantile: a weighted mean of the order
    statistics under a normal kernel centred on rank q.

    The kernel's standard deviation in rank is `width`, or that of the
    Harrell-Davis estimator, sqrt(q(1-q)/(n+2)), when that is wider.  A pass
    holds operations of quite different cost whose latencies form separate
    clusters; on query a gap between two clusters lies a few per cent of
    ranks from the middle, and how far moves with the host and the seed.
    The sample median then jumps across the gap from run to run, while this
    moves a little.
    """
    ordered = sorted(values)
    n = len(ordered)
    kernel = statistics.NormalDist(q, max(width, math.sqrt(q * (1 - q) / (n + 2))))
    cdf = [kernel.cdf(i / n) for i in range(n + 1)]
    weights = [hi - lo for lo, hi in zip(cdf, cdf[1:])]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


class Tracer:
    """Spans kept in flat arrays: name, start, end, parent, operation, sibling.

    A sibling span is a probe call made after its parent ended; its time is
    carved out of the parent's self time instead of nesting inside it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.sibling = array("b")
        self.op_id = -1
        self.op_span = -1
        self.last = -1

    def record(self, name: str, start: int, end: int, parent: int, sibling: int = 0) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(self.ids[name])
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.sibling.append(sibling)
        return len(self.name) - 1

    def begin_op(self) -> None:
        self.op_id += 1
        self.op_span = self.record("bench.op", 0, 0, -1)

    def end_op(self, start: int, end: int) -> None:
        self.start[self.op_span] = start
        self.end[self.op_span] = end
        self.op_span = -1

    def call(self, name, fn, *args):
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.last = self.record(name, start, perf_counter_ns(), self.op_span)

    def self_ns_by_layer(self) -> dict[str, int]:
        """Self time per layer (the name's prefix before the first dot)."""
        count = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        nested = [0] * count
        carved = [0] * count
        for i in range(count):
            if (p := self.parent[i]) >= 0:
                (carved if self.sibling[i] else nested)[p] += dur[i]
        free = [max(0, dur[i] - nested[i]) for i in range(count)]
        scale = [min(1.0, free[i] / carved[i]) if carved[i] else 1.0 for i in range(count)]
        layers: dict[str, int] = defaultdict(int)
        for i in range(count):
            if self.sibling[i]:
                own = dur[i] * scale[self.parent[i]]
            else:
                own = free[i] - carved[i] * scale[i]
            layers[self.names[self.name[i]].split(".", 1)[0]] += round(own)
        return layers

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("name,start_ns,end_ns,parent,op_id,sibling\n")
            for i in range(len(self.name)):
                out.write(
                    f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op[i]},{self.sibling[i]}\n"
                )


def run_pass(
    workload: str,
    ops: list[tuple],
    stats: Stats,
    tracer: Tracer | None = None,
    calibration: host.Calibration | None = None,
) -> int:
    """One pass over the operations; returns ns spent in sibling probes."""
    workloads.clear_caches()
    call = direct if tracer is None else tracer.call
    sibling_ns = 0
    mark = 0
    for slot, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op()
        if calibration is not None:
            mark = calibration.mark()
        start = perf_counter_ns()
        try:
            answer, first = workloads.run_op(workload, call, op)
        except Exception as exc:  # a crash counts as a failed operation
            end = perf_counter_ns()
            answer, error = None, f"{op}: raised {exc!r}"
        else:
            end = perf_counter_ns()
            error = None
        if tracer is not None:
            tracer.end_op(start, end)
            check_start = perf_counter_ns()
        if error is None:
            try:
                error, n_ops, n_failed, n_elems = workloads.check(workload, op, answer)
            except Exception as exc:  # a malformed answer fails its operation
                error, n_ops, n_failed, n_elems = f"{op}: checker raised {exc!r}", 1, 1, 0
        else:
            n_ops, n_failed, n_elems = 1, 1, 0
        if tracer is not None:
            tracer.record("bench.check", check_start, perf_counter_ns(), -1)
            if answer is not None:
                sibling_ns += _run_siblings(workload, op, tracer)
        stats.add(slot, end - start, (first or end) - start, mark, n_ops, n_failed, n_elems, error)
        if calibration is not None:
            calibration.after(end - start)
    stats.end_pass()
    return sibling_ns


def _run_siblings(workload: str, op: tuple, tracer: Tracer) -> int:
    calls = workloads.siblings(workload, op)
    if not calls:
        return 0
    begin = perf_counter_ns()
    parent = tracer.last
    workloads.clear_caches()
    for name, fn, args in calls:
        start = perf_counter_ns()
        fn(*args)
        tracer.record(name, start, perf_counter_ns(), parent, sibling=1)
    return perf_counter_ns() - begin


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(job: dict) -> dict:
    """Whole passes until the wall-clock budget is spent; times scaled by host.py."""
    workload, ops = job["workload"], job["ops"]
    stats = Stats(len(ops), random.Random(job["seed"]))
    calibration = host.Calibration()
    deadline = perf_counter_ns() + job["seconds"] * 1e9
    while perf_counter_ns() < deadline:
        run_pass(workload, ops, stats, calibration=calibration)
    figures = {}
    for label, scale in (("measured", lambda mark: 1.0), ("scaled", calibration.scale_at)):
        timed_s = stats.scaled_timed_s(scale)
        tail_ms, tail_note = stats.tail_ms(scale)
        figures[label] = {
            "ops_per_s": stats.ops / timed_s,
            "op_p50_ms": stats.typical_ms(stats.latency, scale),
            "op_tail_ms": tail_ms,
            "elems_per_s": stats.elems / timed_s,
            "first_out_ms": stats.typical_ms(stats.first, scale),
        }
    metrics = {**figures["scaled"], "peak_rss_mb": peak_rss_mb()}
    notes = {name: f"measured {value:.6g}" for name, value in figures["measured"].items()}
    notes["op_tail_ms"] += f", {tail_note}"
    return {
        "attempted": stats.ops,
        "failed": stats.failed,
        "errors": stats.errors,
        "metrics": metrics,
        "notes": {
            **notes,
            "passes": f"{stats.passes} passes of {len(ops)} operations, {stats.seen} calls timed",
            "fail_ratio": f"{stats.failed / max(stats.ops, 1):.6g}",
            "host.calib_ms": f"{calibration.ms():.4f} (median of {len(calibration.samples)}, reference {host.REF_MS})",
        },
    }


def trace(job: dict) -> dict:
    workload, ops = job["workload"], job["ops"]
    rng = random.Random(f"probes:{job['seed']}")
    metrics = {"host.calib_ms": probes.host_calib_ms()}
    metrics.update(probes.run_all(rng))

    budget = min(job["seconds"] / 2, TRACE_SECONDS) * 1e9
    reference = Stats(len(ops), random.Random(job["seed"]))
    begin = perf_counter_ns()
    while reference.timed_ns < budget:
        run_pass(workload, ops, reference)
    passes = reference.passes
    untraced_ns = perf_counter_ns() - begin

    tracer = Tracer()
    traced = Stats(len(ops), random.Random(job["seed"]))
    begin = perf_counter_ns()
    sibling_ns = sum(run_pass(workload, ops, traced, tracer) for _ in range(passes))
    traced_ns = perf_counter_ns() - begin - sibling_ns

    total = traced_ns + job["prep_s"] * 1e9
    layers = tracer.self_ns_by_layer()
    for module in MODULES:
        metrics[f"{module}.self_share"] = layers.get(module, 0) / total
    metrics["bench.self_share"] = 1 - sum(metrics[f"{module}.self_share"] for module in MODULES)
    metrics["trace.overhead_ratio"] = traced_ns / untraced_ns
    path = TRACE_DIR / f"trace-{workload}-seed{job['seed']}.csv.gz"
    tracer.write(path)
    return {
        "attempted": reference.ops + traced.ops,
        "failed": reference.failed + traced.failed,
        "errors": reference.errors + traced.errors,
        "metrics": metrics,
        "notes": {
            "passes": f"{passes} untraced and {passes} traced passes of {len(ops)} operations",
            "spans": f"{len(tracer.name)} spans written to {path.relative_to(ROOT)}",
        },
    }


def main() -> None:
    job = json.load(sys.stdin)
    job["ops"] = [tuple(op) for op in job["ops"]]
    result = trace(job) if job["trace"] else measure(job)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
