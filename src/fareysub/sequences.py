"""The six sequence families: membership, enumeration oracle, fast generation.

Every sequence is an ascending run of reduced fractions in [0, 1] drawn from
the order-n Farey sequence:

  full        all h/k with k <= n
  fnum        numerator bound h <= m on top of k <= n
  gdiff       difference bound k - h <= n - m on top of k <= n
  bool        both bounds at once (h <= m and k - h <= n - m)
  bool-left   the bool family restricted to h/k <= 1/2
  bool-right  the bool family restricted to h/k >= 1/2

`enumerate_sequence` is the deliberately naive oracle: it scans every
denominator k, over the numerators that the family's bounds admit at k and
are coprime to k, filters each by the membership predicate, and sorts by
the integer key h*n*n // k, which is strictly increasing on F_n because two
distinct members differ by at least 1/n**2.  The generators below produce
the same sequences through one closed-form recurrence and are the ones to
use at scale; the oracle is the trust anchor they are tested against.
They walk on plain ints in runs: the generator _g_walk fills a flat list
[h0, k0, h1, k1, ...] of up to _RUN terms in one loop and yields it whole,
each run is carried over by its piece's map with two list comprehensions
(_term_runs), and _terms builds the run's Fractions at C level, without a
gcd.  A term thus crosses no generator of its own; cli gen formats the
int runs directly.

The terms of one call share their int objects: up to order
_SHARED_INTS_MAX_ORDER, _terms takes each numerator and denominator from
one table range(n + 1) built for the call, so an int above 256, which
CPython would otherwise make afresh for every term, exists once.  A kept
term then costs 56-57 bytes by tracemalloc at n = 700 (a 48-byte Fraction
and its list slot) against 82-99 bytes with private ints.  Above the bound
no table is built, and a walk yields its seed pair alone before any step,
so a stream such as next(iterate_f(10**9, m)) stays O(1) in time and
memory; a full family that large could not be materialised anyway.

The gdiff step is written twice, on purpose: inside the loop of _g_walk,
which generation runs once per term, and as the plain function _g_step,
which the O(1) neighbor and pair queries call once.  Each is the faster
form for its own caller: on CPython 3.11 a walk started for one step
costs about 2.6 times the plain call, even with runs of one term, and a
_g_step call per term in the run loop makes the walk about 1.6 times and
generate_sequence about 1.3 times as slow.  Both make the same checks, and
the tests pin them to each other.

`_pieces` is the one table of how every family is a gdiff family, or two,
carried over by a unimodular map M, which reverses the order exactly when
det M = -1; generation, neighbor queries, rank and cardinality read it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Iterator

from .fraction import IDENTITY_MAP, MIRROR_MAP, DomainError, Fraction, UnimodularMap, _reduced, _reduced_run

#: The largest order the quadratic enumeration oracle lists.
MAX_ENUM_ORDER = 10_000

# Largest order for which _terms shares one table of ints among the terms
# of a call.  The table costs about 40 bytes per entry, 2.6 MB here.  The
# full family of this order already has about 1.3 * 10**9 terms, so above
# it only sparse families (fnum with small m, gdiff with m near n) fit in
# memory, and they keep private ints; what the bound protects is a stream
# such as iterate_f(10**9, m), which must not pay O(n) before its first term.
_SHARED_INTS_MAX_ORDER = 2**16

# Terms per run of the generation walk _g_walk after its seed run.  Read
# when a walk starts, so a test may set it as low as 1.
_RUN = 1024


class SequenceKind(str, Enum):
    FULL = "full"
    FNUM = "fnum"
    GDIFF = "gdiff"
    BOOLEAN = "bool"
    BOOLEAN_LEFT = "bool-left"
    BOOLEAN_RIGHT = "bool-right"


# The members as module-level names: on CPython 3.11 a SequenceKind.X lookup
# costs 120-200 ns against 15-30 ns for a global, and spec validation,
# member, _pieces and the neighbor entry points run on every query.
_FULL, _FNUM, _GDIFF = SequenceKind.FULL, SequenceKind.FNUM, SequenceKind.GDIFF
_BOOL, _LEFT, _RIGHT = SequenceKind.BOOLEAN, SequenceKind.BOOLEAN_LEFT, SequenceKind.BOOLEAN_RIGHT


@dataclass(frozen=True, slots=True)
class SequenceSpec:
    """One of the six families together with its order n and parameter m.

    _admit states once what each kind admits (the gdiff neighbor queries
    call it and build no spec): m is ignored for full, >= 1 for fnum, <= n-1
    for gdiff (slack above n or below 0) and 0 < m < n for the bool kinds.
    """

    kind: SequenceKind
    n: int
    m: int | None = None

    # Written by hand like Fraction.__init__, which says why.
    def __init__(self, kind: SequenceKind, n: int, m: int | None = None) -> None:
        m = _admit(kind, n, m)
        _set_kind(self, kind)
        _set_n(self, n)
        _set_m(self, m)


_set_kind = SequenceSpec.__dict__["kind"].__set__
_set_n = SequenceSpec.__dict__["n"].__set__
_set_m = SequenceSpec.__dict__["m"].__set__


def _admit(kind: SequenceKind, n: int, m: int | None) -> int | None:
    """The m that SequenceSpec(kind, n, m) keeps, or the DomainError it raises."""
    if n < 1:
        raise DomainError(f"order must be positive, got n={n}")
    if kind is _FULL:
        return None
    if m is None:
        raise DomainError(f"kind {kind.value!r} requires parameter m")
    if kind is _GDIFF:
        if m > n - 1:
            raise DomainError(f"gdiff requires m <= n-1, got n={n}, m={m}")
    elif kind is _FNUM:
        if m < 1:
            raise DomainError(f"fnum requires m >= 1, got m={m}")
    elif not 0 < m < n:
        raise DomainError(f"{kind.value} requires n > 1 and 0 < m < n, got n={n}, m={m}")
    return m


def member(spec: SequenceSpec, x: Fraction) -> bool:
    """Membership predicate of x in the sequence described by spec."""
    h, k, n = x.num, x.den, spec.n
    if k > n:
        return False
    kind = spec.kind
    if kind is _FULL:
        return True
    m = spec.m
    if kind is _FNUM:
        return h <= m
    if kind is _GDIFF:
        return k - h <= n - m
    if h > m or k - h > n - m:
        return False
    if kind is _LEFT:
        return 2 * h <= k
    if kind is _RIGHT:
        return 2 * h >= k
    return True


def _require_member(spec: SequenceSpec, x: Fraction) -> None:
    if not member(spec, x):
        raise DomainError(f"{x} is not in the {spec.kind.value} family n={spec.n}, m={spec.m}")


def _numerators(spec: SequenceSpec, k: int) -> range:
    """The numerators h in [0, k] whose pair h/k meets the bounds of spec; empty for k > n.

    It is the member predicate solved for h at denominator k: member reads
    only h and k, and each of its bounds (h <= m, k - h <= n - m, 2h <= k,
    2h >= k) cuts [0, k] at one end.
    """
    n, kind = spec.n, spec.kind
    if k > n:
        return range(0)
    lo, hi = 0, k
    if kind is not _FULL:
        m = spec.m
        if kind is not _FNUM:
            lo = max(0, k - (n - m))
        if kind is not _GDIFF:
            hi = min(k, m)
        if kind is _LEFT:
            hi = min(hi, k // 2)
        elif kind is _RIGHT:
            lo = max(lo, (k + 1) // 2)
    return range(lo, hi + 1)


def _prime_factors(k: int) -> list[int]:
    """The distinct primes dividing k, by trial division."""
    primes = []
    p = 2
    while p * p <= k:
        if k % p == 0:
            primes.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        primes.append(k)
    return primes


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a list of Fractions is built.

    Each new Fraction counts towards the collector's next pass, and each
    pass revisits every term kept so far, though the terms hold no
    reference cycle for it to free: listing F_2000 took about twice as long
    with the collector on.  The switch is process-wide: other threads run
    without the collector too until the block ends.  On the way out, normal
    or by an exception, the collector is enabled again only if it was
    enabled on the way in.  Used as a decorator, it pauses each call.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_gc_paused()
def enumerate_sequence(spec: SequenceSpec) -> list[Fraction]:
    """Brute-force oracle: every reduced h/k with k <= n, filtered by member(), sorted.

    At denominator k only the numerators of _numerators(spec, k) are
    scanned, and of them those coprime to k: the ones left standing after
    the multiples of each prime factor of k are crossed off.  Every
    candidate is still filtered by member, and member must reject the
    numerator just outside each end of the range, so a range too narrow
    raises RuntimeError.  The sort key h*n*n // k is strictly increasing on
    F_n: two distinct members differ by at least 1/n**2, so their keys by at
    least 1.  An order above MAX_ENUM_ORDER raises DomainError before the scan.
    """
    n = spec.n
    if n > MAX_ENUM_ORDER:
        raise DomainError(f"n={n} exceeds the enumeration bound {MAX_ENUM_ORDER}")
    out: list[Fraction] = []
    for k in range(1, n + 1):
        span = _numerators(spec, k)
        lo, hi = span.start, span.stop
        # Probes of the pair alone, which member reads; they need not be reduced.
        if (lo > 0 and member(spec, _reduced(lo - 1, k))) or (
            hi <= k and member(spec, _reduced(hi, k))
        ):
            raise RuntimeError(f"{spec} admits a numerator just outside {span} at denominator {k}")
        coprime = bytearray(b"\x01") * (k + 1)
        for p in _prime_factors(k):
            coprime[::p] = bytes(k // p + 1)
        candidates = map(_reduced, compress(span, coprime[lo:hi]), repeat(k))
        out += [f for f in candidates if member(spec, f)]
    square = n * n
    out.sort(key=lambda f: f.num * square // f.den)
    return out


def halfsequences(n: int, m: int) -> tuple[list[Fraction], list[Fraction]]:
    """Split the bool family at 1/2; both halves contain 1/2."""
    left = generate_sequence(SequenceSpec(_LEFT, n, m))
    return left, generate_sequence(SequenceSpec(_RIGHT, n, m))


def _g_walk(n: int, m: int, ah: int, ak: int, bh: int, bk: int) -> Iterator[list[int]]:
    """The terms of gdiff(n, m) from a = ah/ak on, through b = bh/bk, in runs.

    a and b must be consecutive in the family; a < b walks up, a > b walks
    down.  The same step serves both directions: the term beyond b is
    c = q*b - a with q the floor of min((a.den + n)/b.den,
    (a.den - a.num + n - m)/(b.den - b.num)).  Yields flat int lists
    [h0, k0, h1, k1, ...]: first a and b alone, so that a stream has its
    first term before any step, then runs of up to _RUN terms each, read
    when the walk starts.  The last run ends with 0/1 or 1/1.

    det(b, q*b - a) = det(a, b) for every integer q, so once det(a, b) is
    +-1 every term is reduced and adjacent to the one before; that is what
    lets callers build Fractions without a gcd.  Each step also certifies
    that c is the next member: c is in the family and the mediant b + c,
    the simplest fraction between them, is not.  With the final endpoint
    check this bounds the walk even if q were wrong.  A failure can only be
    a bug here and raises RuntimeError, which, unlike assert, survives
    python -O; no run holding a term that failed is yielded.
    """
    sign = ak * bh - ah * bk
    if sign != 1 and sign != -1:
        raise RuntimeError(f"{ah}/{ak} and {bh}/{bk} are not adjacent (det {sign})")
    size = _RUN
    yield [ah, ak, bh, bk]
    if not 0 < bh < bk:
        return
    d = n - m
    while True:
        run: list[int] = []
        append = run.append
        for _ in repeat(None, size):
            q = (ak + n) // bk
            r = (ak - ah + d) // (bk - bh)
            if r < q:
                q = r
            ch = q * bh - ah
            ck = q * bk - ak
            if ck > n or ck - ch > d or (bk + ck <= n and bk + ck - bh - ch <= d):
                raise RuntimeError(f"gdiff({n}, {m}) step from {ah}/{ak}, {bh}/{bk} gave {ch}/{ck}")
            append(ch)
            append(ck)
            if not 0 < ch < ck:
                if ck != 1 or ch not in (0, 1):
                    raise RuntimeError(f"gdiff({n}, {m}) walk left [0/1, 1/1] at {ch}/{ck}")
                yield run
                return
            ah, ak, bh, bk = bh, bk, ch, ck
        yield run


def _g_step(n: int, m: int, ah: int, ak: int, bh: int, bk: int) -> tuple[int, int] | None:
    """The term of gdiff(n, m) beyond b, from the consecutive a, b; None if b is an end.

    One step of _g_walk as a plain function, for the O(1) queries, with
    every check the walk makes on a step: det(a, b) = +-1 on entry, the new
    term is a member and its mediant with b is not, and an end term is
    exactly 0/1 or 1/1.  _g_walk keeps its own copy of the step; the module
    docstring says why.
    """
    sign = ak * bh - ah * bk
    if sign != 1 and sign != -1:
        raise RuntimeError(f"{ah}/{ak} and {bh}/{bk} are not adjacent (det {sign})")
    if not 0 < bh < bk:
        return None
    d = n - m
    q = (ak + n) // bk
    r = (ak - ah + d) // (bk - bh)
    if r < q:
        q = r
    ch = q * bh - ah
    ck = q * bk - ak
    if ck > n or ck - ch > d or (bk + ck <= n and bk + ck - bh - ch <= d):
        raise RuntimeError(f"gdiff({n}, {m}) step from {ah}/{ak}, {bh}/{bk} gave {ch}/{ck}")
    if not 0 < ch < ck and (ck != 1 or ch not in (0, 1)):
        raise RuntimeError(f"gdiff({n}, {m}) walk left [0/1, 1/1] at {ch}/{ck}")
    return ch, ck


def _g_end(n: int, m: int, h: int) -> tuple[int, int]:
    """The term of gdiff(n, m) after 0/1 (h = 0) or before 1/1 (h = 1)."""
    return (n - 1, n) if h else (1, min(n - m + 1, n))


# gdiff onto the bool halves: thm_gdual_to_left and thm_g_to_right.
_GDUAL_TO_LEFT = UnimodularMap(-1, 1, -1, 2)  # h/k -> (k-h)/(2k-h)
_G_TO_RIGHT = UnimodularMap(0, 1, -1, 2)  # h/k -> k/(2k-h)

_Piece = tuple[int, int, UnimodularMap]


def _pieces(spec: SequenceSpec) -> tuple[_Piece, ...]:
    """The family as images of gdiff families, in ascending order.

    A piece (n', m', M) is the image of gdiff(n', m'), m' >= 0, under M,
    which reverses the order exactly when det M = -1.  fnum is gdiff(n, n-m)
    through the mirror h/k -> (k-h)/k (lemma_g_to_f); the bool half up to
    1/2 is gdiff(n-m, n-2m) through h/k -> (k-h)/(2k-h), and the half from
    1/2 on is gdiff(m, 2m-n) through h/k -> k/(2k-h).  bool is both halves,
    which share 1/2, the image of 0/1.
    """
    n, m, kind = spec.n, spec.m, spec.kind
    if m is None:  # full
        return ((n, 0, IDENTITY_MAP),)
    # max(x, 0) written out: a builtin call costs as much as the tuple.
    if kind is _GDIFF:
        return ((n, m if m > 0 else 0, IDENTITY_MAP),)
    if kind is _FNUM:
        return ((n, n - m if n > m else 0, MIRROR_MAP),)
    left = (n - m, n - 2 * m if n > 2 * m else 0, _GDUAL_TO_LEFT)
    right = (m, 2 * m - n if 2 * m > n else 0, _G_TO_RIGHT)
    if kind is _LEFT:
        return (left,)
    if kind is _RIGHT:
        return (right,)
    return left, right


def _piece(pieces: tuple[_Piece, ...], h: int, k: int, sign: int) -> _Piece:
    """The piece holding the neighbor of h/k before (sign -1) or after (+1) it."""
    return pieces[-1] if 2 * h > k or (2 * h == k and sign > 0) else pieces[0]


def _carry(M: UnimodularMap, run: list[int]) -> None:
    """M applied in place to every term of the int run [h0, k0, h1, k1, ...]."""
    a, b, c, d = M.a, M.b, M.c, M.d
    hs, ks = run[0::2], run[1::2]
    run[0::2] = [a * h + b * k for h, k in zip(hs, ks)]
    run[1::2] = [c * h + d * k for h, k in zip(hs, ks)]


def _carried_back(M: UnimodularMap, h: int, k: int) -> tuple[int, int]:
    """h/k carried back by M^-1, det(M) times the adjugate; the one int carry-back."""
    a, b, c, d = M.a, M.b, M.c, M.d
    det = a * d - b * c
    return det * (d * h - b * k), det * (a * k - c * h)


def _term_runs(spec: SequenceSpec) -> Iterator[list[int]]:
    """The terms of spec, ascending, in flat int runs [h0, k0, h1, k1, ...].

    Each piece of _pieces is walked from _g_end, up or, if its map reverses
    the order, down, and each run is carried over by the piece's map.  A
    later piece starts on the last term of the one before, where the
    downward walk is checked to end, so its first run drops that term.
    """
    drop = 0
    for n, m, M in _pieces(spec):
        h = 1 if M.det < 0 else 0
        for run in _g_walk(n, m, h, 1, *_g_end(n, m, h)):
            if M is not IDENTITY_MAP:
                _carry(M, run)
            del run[:drop]
            drop = 0
            yield run
        drop = 2


def _terms(spec: SequenceSpec) -> Iterator[list[Fraction]]:
    """The terms of spec, ascending, in runs of Fractions; the one place they are built.

    Every term h/k has 0 <= h <= k <= spec.n, so up to
    _SHARED_INTS_MAX_ORDER a run's ints are looked up, in one C call, in a
    table range(n + 1) built once for the call, and the terms share them.
    Above it the run's own ints are kept and no table is built.
    """
    runs = _term_runs(spec)
    if spec.n > _SHARED_INTS_MAX_ORDER:
        for run in runs:
            yield _reduced_run(run[0::2], run[1::2])
        return
    ints = tuple(range(spec.n + 1))
    for run in runs:
        # A run holds at least one term, so itemgetter returns a tuple.
        shared = itemgetter(*run)(ints)
        yield _reduced_run(shared[0::2], shared[1::2])


def iterate_g(n: int, m: int) -> Iterator[Fraction]:
    """Yield the gdiff family (k - h <= n - m) ascending from 0/1 to 1/1.

    Seeded with 0/1 and the term _g_end gives after it, then advanced by the
    floor-min next-term recurrence on consecutive pairs, a run at a time.
    m may be negative; the difference bound is then slack and the output
    equals the full family.  The terms share their int objects up to order
    _SHARED_INTS_MAX_ORDER, and above it the first term comes out at once
    (see the module docstring).
    """
    return chain.from_iterable(_terms(SequenceSpec(_GDIFF, n, m)))


def iterate_f(n: int, m: int) -> Iterator[Fraction]:
    """Yield the fnum family (h <= m) ascending from 0/1 to 1/1.

    Walks the gdiff family with complemented parameter n - m down from 1/1
    and reflects every term through h/k -> (k-h)/k, so the first term comes
    out at once.  The terms share their int objects up to order
    _SHARED_INTS_MAX_ORDER, as in iterate_g.
    """
    return chain.from_iterable(_terms(SequenceSpec(_FNUM, n, m)))


def generate_boolean(n: int, m: int) -> list[Fraction]:
    """The bool family, assembled from its two halves (see _pieces) without enumeration."""
    return generate_sequence(SequenceSpec(_BOOL, n, m))


@_gc_paused()
def generate_sequence(spec: SequenceSpec) -> list[Fraction]:
    """Recurrence-based counterpart of enumerate_sequence for any spec.

    The list grows by whole runs of _terms.  Up to order
    _SHARED_INTS_MAX_ORDER the terms share their int objects, so each kept
    term costs a Fraction and a list slot, 56-57 bytes at n = 700 against
    82-99 with an int pair of its own (see the module docstring).
    """
    out: list[Fraction] = []
    for run in _terms(spec):
        out += run
    return out
