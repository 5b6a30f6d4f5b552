"""Mass verification suites: formulas and maps replayed against the oracle.

Each suite sweeps a parameter range, compares closed forms or map images
with the brute-force enumeration, and returns one summary row per checked
property.

A suite is made of *parts*, each a contiguous run of its rows; `SUITES`
states the three suites of `fareysub verify` and their seven parts, in
print order, and is the one statement of a suite's parts: `neighbor_suite`,
`identity_suite` and `map_suite` return the concatenation of their parts'
rows.
`fareysub verify` (`cli.cmd_verify`) hands the parts to a pool of worker
processes in print order and reads their rows back in that order, so its
table is the same as a serial run's.  Print order is enough: the pool gives
each free worker the next part, and no part dominates the others, so a
costliest-first order measured the same wall time (0.35 s at --max-n 20 on
2 CPUs, CPython 3.11).

The oracle runs its naive scan once per order: `enumerate_sequence` lists
the Farey sequence F_n, and every spec of order n is that list filtered by
`member`, which keeps it sorted.  A per-spec memo over the filtered lists
sits on top, since the suites fetch the same sequences many times (a
`verify --max-n 20` sweep fetches 1,244 specs 7,174 times).  Both caches
are bounded, and they belong to the process: under `fareysub verify` the
scan runs once per order in each worker that needs it.  The parts share
nothing but these caches.

A row's failure text is formatted only when a check fails; passing checks
cost no string work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from . import counting, maps, neighbors
from .fraction import HALF, ONE, ZERO, DomainError, Fraction
from .sequences import (
    SequenceKind,
    SequenceSpec,
    enumerate_sequence,
    generate_sequence,
    member,
)


# Holds every order a sweep up to n = 60 visits.
@lru_cache(maxsize=64)
def _farey(n: int) -> tuple[Fraction, ...]:
    """F_n by the naive oracle scan, shared by every spec of order n."""
    return tuple(enumerate_sequence(SequenceSpec(SequenceKind.FULL, n)))


# Bounded, yet large enough that neither a `verify --max-n 20` sweep (1,244
# specs) nor `structure_suite(60)` (9,270 specs) evicts.
@lru_cache(maxsize=16384)
def _cached(spec: SequenceSpec) -> tuple[Fraction, ...]:
    return tuple(x for x in _farey(spec.n) if member(spec, x))


def cached_sequence(spec: SequenceSpec) -> list[Fraction]:
    """Memoized enumeration oracle; safe because its output is re-listed."""
    return list(_cached(spec))


@dataclass
class SuiteRow:
    """Outcome of one verified property over a parameter sweep."""

    name: str
    checks: int = 0
    failures: int = 0
    first_failure: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def count(self, passed: bool, detail: str = "", *args: object) -> None:
        """Record one check; detail.format(*args) is built only for the first failure."""
        self.checks += 1
        if not passed:
            self.failures += 1
            if not self.first_failure:
                self.first_failure = detail.format(*args) if args else detail


def _sweep(kind: SequenceKind, orders: range, low: int, past_n: int) -> Iterator[SequenceSpec]:
    """The specs of a kind with n in orders and m in [low, n + past_n] that SequenceSpec admits.

    SequenceSpec is the one statement of which m each kind admits; a window
    wider than that range adds the slack parameters it allows (negative m
    for gdiff, m beyond n for fnum).  The full family takes m = None only.
    """
    for n in orders:
        for m in [None] if kind is SequenceKind.FULL else range(low, n + past_n + 1):
            try:
                spec = SequenceSpec(kind, n, m)
            except DomainError:
                continue
            yield spec


def _main_sweep(kind: SequenceKind, max_n: int) -> Iterator[SequenceSpec]:
    # m in [-2, n + 2]: every admissible m, and up to two slack ones on each side.
    return _sweep(kind, range(1, max_n + 1), -2, 2)


def _gdiff_neighbor_rows(max_n: int) -> list[SuiteRow]:
    g_row = SuiteRow("neighbors/gdiff pred+succ")
    unit_row = SuiteRow("neighbors/gdiff unit fractions")
    pair_row = SuiteRow("neighbors/gdiff from consecutive pair")
    for spec in _main_sweep(SequenceKind.GDIFF, max_n):
        n, m = spec.n, spec.m
        seq = cached_sequence(spec)
        for i in range(1, len(seq) - 1):
            prev, x, nxt = seq[i - 1], seq[i], seq[i + 1]
            got = (neighbors.g_predecessor(n, m, x), neighbors.g_successor(n, m, x))
            g_row.count(got == (prev, nxt), "n={} m={} x={} got {},{}", n, m, x, got[0], got[1])
            if x.num == 1 and x.den > 1:
                unit = neighbors.g_unit_fraction_neighbors(n, m, x.den)
                unit_row.count(unit == (prev, nxt), "n={} m={} 1/{} got {}", n, m, x.den, unit)
            fwd = neighbors.g_next_from_pair(n, m, prev, x)
            bwd = neighbors.g_prev_from_pair(n, m, x, nxt)
            pair_row.count(fwd == nxt and bwd == prev, "n={} m={} around {}", n, m, x)
    return [g_row, unit_row, pair_row]


def _fnum_neighbor_rows(max_n: int) -> list[SuiteRow]:
    f_row = SuiteRow("neighbors/fnum pred+succ")
    for spec in _main_sweep(SequenceKind.FNUM, max_n):
        n, m = spec.n, spec.m
        seq = cached_sequence(spec)
        for i in range(1, len(seq) - 1):
            x = seq[i]
            got = (neighbors.f_predecessor(n, m, x), neighbors.f_successor(n, m, x))
            f_row.count(got == (seq[i - 1], seq[i + 1]), "n={} m={} x={} got {}", n, m, x, got)
    return [f_row]


def _bool_neighbor_rows(max_n: int) -> list[SuiteRow]:
    anchor_row = SuiteRow("neighbors/bool special anchors")
    bool_row = SuiteRow("neighbors/bool pred+succ")
    for spec in _main_sweep(SequenceKind.BOOLEAN, max_n):
        n, m = spec.n, spec.m
        seq = cached_sequence(spec)
        index = {x: i for i, x in enumerate(seq)}
        if n != 2 * m:
            for anchor in (HALF, Fraction(1, 3), Fraction(2, 3)):
                if not member(spec, anchor):
                    continue
                i = index[anchor]
                got = neighbors.boolean_special_neighbors(n, m, anchor)
                anchor_row.count(
                    got == (seq[i - 1], seq[i + 1]),
                    "n={} m={} anchor {} got {}", n, m, anchor, got,
                )
        for i in range(1, len(seq) - 1):
            x = seq[i]
            got = (neighbors.boolean_predecessor(n, m, x), neighbors.boolean_successor(n, m, x))
            bool_row.count(got == (seq[i - 1], seq[i + 1]), "n={} m={} x={} got {}", n, m, x, got)
    return [anchor_row, bool_row]


def _endpoint_rows(max_n: int) -> list[SuiteRow]:
    # Endpoint handling of the unified dispatcher, spot-swept at small sizes.
    ends_row = SuiteRow("neighbors/endpoint dispatch")
    for kind in SequenceKind:
        for spec in _sweep(kind, range(1, min(max_n, 10) + 1), -1, 0):
            seq = cached_sequence(spec)
            for i, x in enumerate(seq):
                res = neighbors.sequence_neighbors(spec, x)
                want_pred = seq[i - 1] if i > 0 else None
                want_succ = seq[i + 1] if i < len(seq) - 1 else None
                ends_row.count(
                    (res.predecessor, res.successor) == (want_pred, want_succ),
                    "{} n={} m={} x={}", kind.value, spec.n, spec.m, x,
                )
    return [ends_row]


def neighbor_suite(max_n: int = 20) -> list[SuiteRow]:
    """Closed-form neighbors versus oracle scans, over all families."""
    return [row for part in SUITES["neighbors"] for row in part(max_n)]


def _identity_closed_form_rows(
    max_n: int, max_t: int = 300, enum_cross_max: int | None = None
) -> list[SuiteRow]:
    """The summation identities and every closed form of each count.

    enum_cross_max defaults to min(max_n, 30), the bound of `fareysub verify`.
    """
    mertens_row = SuiteRow("identities/moebius floor sum equals 1")
    central_row = SuiteRow("identities/square-sum ties bool size to Farey size")
    cross_row = SuiteRow("identities/square-sum versus enumeration")
    g_card_row = SuiteRow("counting/gdiff cardinality vs oracle")
    f_card_row = SuiteRow("counting/fnum cardinality vs oracle")
    b_card_row = SuiteRow("counting/bool cardinality vs oracle")

    for t in range(1, max_t + 1):
        mertens_row.count(counting.moebius_floor_sum(t) == 1, "t={}", t)
        central_row.count(counting.central_identity_check(t), "t={}", t)
    if enum_cross_max is None:
        enum_cross_max = min(max_n, 30)
    for t in range(1, enum_cross_max + 1):
        seq = cached_sequence(SequenceSpec(SequenceKind.BOOLEAN, 2 * t, t))
        cross_row.count(
            counting.moebius_floor_square_sum(t) == len(seq) - 2, "t={} |seq|={}", t, len(seq)
        )

    # Every closed form of a size is checked here, once; the scalar counts
    # compute one form each.
    for row, kind in (
        (g_card_row, SequenceKind.GDIFF),
        (f_card_row, SequenceKind.FNUM),
        (b_card_row, SequenceKind.BOOLEAN),
    ):
        for spec in _main_sweep(kind, max_n):
            _, got = counting.cardinality_variants(spec)
            want = len(cached_sequence(spec))
            row.count(
                set(got.values()) == {want}, "n={} m={} got {} want {}", spec.n, spec.m, got, want
            )
    return [mertens_row, central_row, cross_row, g_card_row, f_card_row, b_card_row]


def _gdiff_rank_rows(max_n: int) -> list[SuiteRow]:
    rank_row = SuiteRow("counting/gdiff rank vs oracle")
    rank_variant_row = SuiteRow("counting/gdiff rank moebius variant (reported)")
    for spec in _sweep(SequenceKind.GDIFF, range(2, min(max_n, 30) + 1), 0, 0):
        n, m = spec.n, spec.m
        seq = cached_sequence(spec)
        for i, x in enumerate(seq):
            if x == ZERO:
                continue
            variants = counting.g_rank_variants(n, m, x)
            rank_row.count(variants["phi-sum"] == i, "n={} m={} x={}", n, m, x)
            rank_variant_row.count(
                variants["moebius-sum"] == i, "n={} m={} x={} got {}", n, m, x, variants
            )
    return [rank_row, rank_variant_row]


def identity_suite(
    max_t: int = 300, enum_cross_max: int | None = None, max_n: int = 20
) -> list[SuiteRow]:
    """Every closed form of each count versus the oracle, plus the summation identities."""
    return _identity_closed_form_rows(max_n, max_t, enum_cross_max) + _gdiff_rank_rows(max_n)


def map_suite(max_n: int = 20) -> list[SuiteRow]:
    """Every registered map verified at every admissible (n, m)."""
    rows = []
    for entry in maps.catalog():
        row = SuiteRow(f"maps/{entry.id}")
        for n, m in maps.valid_parameter_pairs(entry.id, max_n):
            report = maps.verify_map(entry.id, n, m, oracle=cached_sequence)
            row.count(report.passed, "n={} m={}: {}", n, m, report.counterexample)
        rows.append(row)

    for side, identity in (
        ("left", maps.composite_left_identity),
        ("right", maps.composite_right_identity),
    ):
        row = SuiteRow(f"maps/composite {side} involution identity")
        for n, m in maps.valid_parameter_pairs(f"prop_{side}_involution", max_n):
            row.count(identity(n, m, oracle=cached_sequence), "n={} m={}", n, m)
        rows.append(row)
    return rows


# The suites of `fareysub verify` by the names its selectors use, each as its
# parts in print order.  A part is a module-level function max_n -> rows, so
# it pickles; a suite's rows are those of its parts, in this order.
SUITES: dict[str, tuple[Callable[[int], list[SuiteRow]], ...]] = {
    "maps": (map_suite,),
    "identities": (_identity_closed_form_rows, _gdiff_rank_rows),
    "neighbors": (_gdiff_neighbor_rows, _fnum_neighbor_rows, _bool_neighbor_rows, _endpoint_rows),
}


def structure_suite(max_n: int = 20) -> list[SuiteRow]:
    """Orderedness, unimodular adjacency, mediants, and the intersection law.

    Also checks that the fast generators reproduce the oracle exactly and
    that the element after 0/1 in the gdiff family matches its closed form.
    """
    order_row = SuiteRow("structure/ascending with determinant 1")
    mediant_row = SuiteRow("structure/interior mediants")
    ends_row = SuiteRow("structure/endpoints")
    intersect_row = SuiteRow("structure/bool equals fnum intersect gdiff")
    gen_row = SuiteRow("structure/generators match oracle")
    second_row = SuiteRow("structure/gdiff second element closed form")

    def check_sequence(spec: SequenceSpec) -> None:
        seq = cached_sequence(spec)
        # The three checks run on (num, den) ints, denominators positive.
        hs = [x.num for x in seq]
        ks = [x.den for x in seq]
        ok_order = all(
            h * k2 < h2 * k and k * h2 - h * k2 == 1
            for h, k, h2, k2 in zip(hs, ks, hs[1:], ks[1:])
        )
        order_row.count(ok_order, "{}", spec)
        # The mediant of the outer two reduces to the reduced middle term
        # exactly when the two are equal as rationals.
        ok_mediant = all(
            (h0 + h2) * k1 == (k0 + k2) * h1
            for h0, k0, h1, k1, h2, k2 in zip(hs, ks, hs[1:], ks[1:], hs[2:], ks[2:])
        )
        mediant_row.count(ok_mediant, "{}", spec)
        first, last = seq[0], seq[-1]
        if spec.kind is SequenceKind.BOOLEAN_LEFT:
            ends_row.count(first == ZERO and last == HALF, "{}", spec)
        elif spec.kind is SequenceKind.BOOLEAN_RIGHT:
            ends_row.count(first == HALF and last == ONE, "{}", spec)
        else:
            ends_row.count(first == ZERO and last == ONE, "{}", spec)
        gen_row.count(generate_sequence(spec) == seq, "{}", spec)

    for kind in (SequenceKind.FULL, SequenceKind.FNUM):
        for spec in _main_sweep(kind, max_n):
            check_sequence(spec)
    for spec in _main_sweep(SequenceKind.GDIFF, max_n):
        n, m = spec.n, spec.m
        check_sequence(spec)
        seq = cached_sequence(spec)
        second_row.count(
            seq[1] == Fraction(1, min(n - m + 1, n)), "n={} m={} second={}", n, m, seq[1]
        )
    for spec in _main_sweep(SequenceKind.BOOLEAN, max_n):
        n, m = spec.n, spec.m
        check_sequence(spec)
        check_sequence(SequenceSpec(SequenceKind.BOOLEAN_LEFT, n, m))
        check_sequence(SequenceSpec(SequenceKind.BOOLEAN_RIGHT, n, m))
        both = cached_sequence(spec)
        fset = set(cached_sequence(SequenceSpec(SequenceKind.FNUM, n, m)))
        gseq = cached_sequence(SequenceSpec(SequenceKind.GDIFF, n, m))
        intersect_row.count(
            [x for x in gseq if x in fset] == both, "n={} m={}", n, m
        )

    return [order_row, mediant_row, ends_row, intersect_row, gen_row, second_row]
