"""Command-line interface.

Subcommands: gen, neighbors, card, rank, map, verify.  Exit codes are a
stable contract: 0 success, 1 usage error, 2 domain error (parameters or
fractions outside a sequence, an order too large to count or to fit in
memory), 3 verification failure (a failed internal check in any
subcommand: one stderr line, no traceback).  gen raises every domain error
before its first write; a later fault exits 3 after the runs written.
Results go to standard output, diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Sequence

from . import counting, maps, neighbors
from .fraction import DomainError, Fraction, parse_fraction
from .sequences import MAX_ENUM_ORDER, SequenceKind, SequenceSpec, _term_runs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

_KINDS = [kind.value for kind in SequenceKind]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _spec(args: argparse.Namespace) -> SequenceSpec:
    """The sequence that --kind, -n and -m name; every kind but full requires -m."""
    kind = SequenceKind(args.kind)
    if args.m is None and kind is not SequenceKind.FULL:
        raise UsageError(f"kind {kind.value!r} requires -m")
    return SequenceSpec(kind, args.n, 0 if args.m is None else args.m)


def _spec_metadata(spec: SequenceSpec) -> dict:
    return {"kind": spec.kind.value, "n": spec.n, "m": spec.m}


# gen output per --format: the text before the first term, each term as a
# template on (h, k), and the separator between terms.
_GEN_LAYOUT = {
    "plain": ("", "%d/%d", " "),
    "json": ('{"fractions": [', '"%d/%d"', ", "),
    "csv": ("num,den\n", "%d,%d\n", ""),
}


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _spec(args)
    head, term, sep = _GEN_LAYOUT[args.format]
    runs = _term_runs(spec)
    formats: dict[int, str] = {}

    def formatted(run: list[int]) -> str:
        """The terms of an int run as text, with one % on a format cached per size."""
        size = len(run) // 2
        fmt = formats.get(size)
        if fmt is None:
            fmt = formats[size] = sep.join([term] * size)
        return fmt % tuple(run)

    # Each run is written once made; the head goes with the seed pair, so no write is empty.
    first = next(runs)
    write = sys.stdout.write
    write(head + formatted(first))
    count = len(first) // 2
    for run in runs:
        write(sep + formatted(run))
        count += len(run) // 2
    if args.format == "plain":
        write("\n")
    elif args.format == "json":
        metadata = _spec_metadata(spec) | {"cardinality": count}
        write(f'], "metadata": {json.dumps(metadata)}}}\n')
    return EXIT_OK


def cmd_neighbors(args: argparse.Namespace) -> int:
    spec = _spec(args)
    x = _parse_fraction_arg(args.fraction)
    result = neighbors.sequence_neighbors(spec, x)
    if result.predecessor is None or result.successor is None:
        raise DomainError(f"{x} is an endpoint of the sequence; no two-sided neighbors")
    if args.format == "json":
        payload = {
            "predecessor": str(result.predecessor),
            "successor": str(result.successor),
            "metadata": _spec_metadata(spec) | {"target": str(x), "method": "closed-form"},
        }
        print(json.dumps(payload))
    else:
        print(f"{result.predecessor} {result.successor}")
    return EXIT_OK


def cmd_card(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if args.format != "json":
        print(counting.cardinality(spec))
        return EXIT_OK
    # The json form lists every closed form, so only it computes them.
    method, variants = counting.cardinality_variants(spec)
    if len(set(variants.values())) != 1:
        raise RuntimeError(f"cardinality variants disagree for {spec}: {variants}")
    payload = {
        "cardinality": variants[method],
        "metadata": _spec_metadata(spec) | {"method": method, "variants": variants},
    }
    print(json.dumps(payload))
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    spec = _spec(args)
    x = _parse_fraction_arg(args.fraction)
    gdiff = spec.kind is SequenceKind.GDIFF
    if args.format != "json":
        print(counting.g_rank(spec.n, spec.m, x) if gdiff else counting.rank(spec, x))
        return EXIT_OK
    # The json form lists the gdiff rank formulas, so only it computes them.
    if gdiff:
        assert spec.m is not None
        variants = counting.g_rank_variants(spec.n, spec.m, x)
        value, method = variants["phi-sum"], "phi-sum"
    else:
        value, method, variants = counting.rank(spec, x), "phi-sum-transport", {}
    metadata = _spec_metadata(spec) | {"target": str(x), "method": method}
    if variants:
        metadata["variants"] = variants
    print(json.dumps({"rank": value, "metadata": metadata}))
    return EXIT_OK


def cmd_map(args: argparse.Namespace) -> int:
    x = _parse_fraction_arg(args.fraction)
    entry = maps.get_map(args.name)
    if args.m is None and not entry.ignores_m:
        raise UsageError(f"map {entry.id!r} requires -m")
    image = maps.apply_named(args.name, args.n, 0 if args.m is None else args.m, x)
    if args.format == "json":
        payload = {
            "image": str(image),
            "metadata": {"map": args.name, "n": args.n, "m": args.m, "argument": str(x)},
        }
        print(json.dumps(payload))
    else:
        print(image)
    return EXIT_OK


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS and Windows
        return os.cpu_count() or 1


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 0:
        raise UsageError(f"--max-n must be >= 0, got {args.max_n}")
    if args.max_n > MAX_ENUM_ORDER:  # before the pool, whose oracle would list every F_n first
        raise DomainError(f"--max-n {args.max_n} exceeds the enumeration bound {MAX_ENUM_ORDER}")

    # Imported here so that no other subcommand pays for the pool's modules
    # or for the suites.
    from concurrent.futures import ProcessPoolExecutor

    from . import verify

    chosen = {"maps": args.all_maps, "identities": args.identities, "neighbors": args.neighbors}
    selected = [name for name in verify.SUITES if chosen[name]] or list(verify.SUITES)
    # One part per task, in print order. Each worker fills its own caches,
    # and neither the pool nor a worker outlives this call.
    parts = [(name, part) for name in selected for part in verify.SUITES[name]]
    with ProcessPoolExecutor(max_workers=min(len(parts), _usable_cpus())) as pool:
        futures = [pool.submit(part, args.max_n) for _, part in parts]
        rows = []
        for (name, part), future in zip(parts, futures):
            try:
                rows += future.result()
            except MemoryError:
                raise
            except Exception as err:
                # A check that raises is a failed check, not bad input: one
                # failed row names the part, and the other rows still print.
                row = verify.SuiteRow(f"{name}/{part.__name__}")
                row.count(False, f"{type(err).__name__}: {err}")
                rows.append(row)

    width = max(len(row.name) for row in rows)
    print(f"{'suite':<{width}}  {'checks':>8}  {'failures':>8}  status")
    for row in rows:
        status = "ok" if row.ok else f"FAIL ({row.first_failure})"
        print(f"{row.name:<{width}}  {row.checks:>8}  {row.failures:>8}  {status}")
    failed = sum(row.failures for row in rows)
    total = sum(row.checks for row in rows)
    if failed:
        print(f"{failed} of {total} checks failed", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {total} checks passed")
    return EXIT_OK


def _parse_fraction_arg(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as err:  # DomainError included
        raise UsageError(str(err)) from err


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=_KINDS, help="sequence family")
    parser.add_argument("-n", type=int, required=True, help="order of the ambient Farey sequence")
    parser.add_argument("-m", type=int, default=None, help="family parameter (see --kind)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fareysub", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="print a whole sequence in ascending order")
    _add_common(p_gen)
    p_gen.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p_gen.set_defaults(func=cmd_gen)

    p_nb = sub.add_parser("neighbors", help="closed-form predecessor and successor")
    _add_common(p_nb)
    p_nb.add_argument("fraction", help="reduced fraction h/k interior to the sequence")
    p_nb.add_argument("--format", choices=["plain", "json"], default="plain")
    p_nb.set_defaults(func=cmd_neighbors)

    p_card = sub.add_parser("card", help="cardinality by closed formula")
    _add_common(p_card)
    p_card.add_argument("--format", choices=["plain", "json"], default="plain")
    p_card.set_defaults(func=cmd_card)

    p_rank = sub.add_parser("rank", help="zero-based index of a fraction")
    _add_common(p_rank)
    p_rank.add_argument("fraction", help="reduced fraction h/k in the sequence")
    p_rank.add_argument("--format", choices=["plain", "json"], default="plain")
    p_rank.set_defaults(func=cmd_rank)

    p_map = sub.add_parser("map", help="apply a registered monotone map")
    p_map.add_argument("--name", required=True, help="map identifier from the catalog")
    p_map.add_argument("-n", type=int, required=True)
    p_map.add_argument("-m", type=int, default=None)
    p_map.add_argument("fraction", help="reduced fraction h/k in the map's domain")
    p_map.add_argument("--format", choices=["plain", "json"], default="plain")
    p_map.set_defaults(func=cmd_map)

    p_verify = sub.add_parser("verify", help="replay formulas and maps against the oracle")
    p_verify.add_argument("--all-maps", action="store_true", help="verify the map catalog")
    p_verify.add_argument("--identities", action="store_true", help="verify counting identities")
    p_verify.add_argument("--neighbors", action="store_true", help="verify neighbor formulas")
    max_n_help = "sweep bound on the order n; the Moebius identity rows run t <= 300 whatever it is"
    p_verify.add_argument("--max-n", type=int, default=20, help=max_n_help)
    p_verify.set_defaults(func=cmd_verify)

    return parser


# One parser per process: building it costs about as much as a whole
# in-process `card` call, and parse_args leaves it unchanged.
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        # Flushed here, so that a reader that has closed the pipe is met
        # below and not in the interpreter's final flush.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe and got every byte it asked for.  What
        # is left in the buffer goes to the null device, so that the final
        # flush at exit stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except UsageError as err:
        print(f"fareysub: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as err:
        print(f"fareysub: domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except RuntimeError as err:
        # Every internal check raises RuntimeError, in whichever subcommand.
        print(f"fareysub: internal check failed: {err}", file=sys.stderr)
        return EXIT_VERIFY
    except MemoryError:
        # A table or sequence too large for this host is a parameter that
        # lies outside what it can compute, not a fault of the program.
        print("fareysub: domain error: out of memory; the order is too large", file=sys.stderr)
        return EXIT_DOMAIN
    except SystemExit as exc:  # --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
