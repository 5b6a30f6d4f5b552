"""Benchmark of fareysub: one workload per run, every answer checked.

    python3 bench/run.py --workload {stream,query,count,verify} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is always imported from
the checkout's src/.  The run prepares one pass of operations from the
seed, measures set-up time in fresh interpreters, and hands the pass to a
fresh worker process (worker.py) that measures it.  It prints a table of
every metric with its unit and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  The exit code is 0 when every answer was
right, 1 when some were wrong, and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from time import perf_counter_ns

import host
from source import ROOT, SRC, use_checkout_source

SETUP_RUNS = 15
WORKER_TIMEOUT_S = 170
# The first child compiles the package to bytecode; it is not counted.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import fareysub, fareysub.cli; "
    "sys.stdout.write('ready'); sys.stdout.flush()"
)


def setup_seconds() -> tuple[float, float]:
    """Median time from spawning an interpreter until fareysub and its CLI are
    imported, scaled to the reference host, and as measured.

    The host calibration loop is timed before every spawn.
    """
    times = []
    calibration = host.Calibration()
    for _ in range(SETUP_RUNS + 1):
        calibration.samples.append(host.loop_ns())
        start = perf_counter_ns()
        child = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], stdout=subprocess.PIPE)
        ready = child.stdout.read(5)
        times.append(perf_counter_ns() - start)
        child.stdout.close()
        if child.wait() != 0 or ready != b"ready":
            raise SystemExit(f"bench: set-up child exited {child.returncode}")
    measured = statistics.median(times[1:]) / 1e9
    return measured * calibration.scale(), measured


def run_worker(job: dict) -> dict:
    worker = ROOT / "bench" / "worker.py"
    try:
        done = subprocess.run(
            [sys.executable, str(worker)],
            input=json.dumps(job).encode(),
            stdout=subprocess.PIPE,
            timeout=WORKER_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: worker did not finish within {WORKER_TIMEOUT_S} s")
    if done.returncode != 0:
        raise SystemExit(f"bench: worker exited {done.returncode}")
    return json.loads(done.stdout)


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    units = declared_metrics(bool(args.trace))

    start = perf_counter_ns()
    ops = workloads.prepare(args.workload, args.seed)
    prep_s = (perf_counter_ns() - start) / 1e9
    setup_s, setup_measured = setup_seconds() if not args.trace else (None, None)
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "prep_s": prep_s,
    }
    result = run_worker(job)
    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"bench: no value for {', '.join(sorted(missing))}")

    notes = result["notes"]
    if setup_s is not None:
        notes["setup_s"] = f"measured {setup_measured:.6g}"
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"inputs prepared in {prep_s:.3f} s; {notes.pop('passes')}")
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit:<8} {note}")
    for name, note in notes.items():
        if name not in units:
            print(f"  {name:<44} {note}")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            sys.exit(2)
        raise
