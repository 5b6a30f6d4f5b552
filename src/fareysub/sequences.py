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
denominator, filters by gcd and the membership predicate, and sorts.  The
generators below produce the same sequences through one closed-form
recurrence and are the ones to use at scale; the oracle is the trust anchor
they are tested against.  They run on plain int pairs, one gdiff step at a
time, and build each Fraction once at the end, without a gcd.

The gdiff step is written twice, on purpose: inside the generator _g_walk,
which generation runs once per term, and as the plain function _g_step,
which the O(1) neighbor and pair queries call once.  Each is the faster
form for its own caller: on CPython 3.11 a generator built for one step
costs about 1.6 times the plain call, and a call per generated term slows
generation by about a fifth.  Both make the same checks, and the tests pin
them to each other.

`_pieces` is the one table of how every family is a gdiff family, or two,
carried over by a unimodular map; generation, neighbor queries, rank and
the cardinality variants all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math
from itertools import chain, islice
from typing import Iterator

from .fraction import IDENTITY_MAP, MIRROR_MAP, DomainError, Fraction, UnimodularMap, _reduced

#: Default guard for the quadratic enumeration oracle.
MAX_ENUM_ORDER = 10_000


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

    m is ignored for the full family, must be >= 1 for fnum (larger than n is
    allowed, the bound is then slack), at most n - 1 for gdiff (negative
    values are allowed, the bound is then slack), and strictly between 0 and
    n for the three bool families.
    """

    kind: SequenceKind
    n: int
    m: int | None = None

    # Written by hand like Fraction.__init__, which says why.
    def __init__(self, kind: SequenceKind, n: int, m: int | None = None) -> None:
        if n < 1:
            raise DomainError(f"order must be positive, got n={n}")
        if kind is _FULL:
            m = None
        elif m is None:
            raise DomainError(f"kind {kind.value!r} requires parameter m")
        elif kind is _FNUM:
            if m < 1:
                raise DomainError(f"fnum requires m >= 1, got m={m}")
        elif kind is _GDIFF:
            if m > n - 1:
                raise DomainError(f"gdiff requires m <= n-1, got n={n}, m={m}")
        elif n <= 1 or not 0 < m < n:
            raise DomainError(f"{kind.value} requires n > 1 and 0 < m < n, got n={n}, m={m}")
        _set_kind(self, kind)
        _set_n(self, n)
        _set_m(self, m)


_set_kind = SequenceSpec.__dict__["kind"].__set__
_set_n = SequenceSpec.__dict__["n"].__set__
_set_m = SequenceSpec.__dict__["m"].__set__


def member(spec: SequenceSpec, x: Fraction) -> bool:
    """Membership predicate of x in the sequence described by spec."""
    h, k, n = x.num, x.den, spec.n
    if k > n:
        return False
    kind = spec.kind
    if kind is _FULL:
        return True
    m = spec.m
    assert m is not None
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


def enumerate_sequence(spec: SequenceSpec, *, max_order: int = MAX_ENUM_ORDER) -> list[Fraction]:
    """Brute-force oracle: every reduced h/k, filtered by member(), sorted."""
    if spec.n > max_order:
        raise DomainError(f"n={spec.n} exceeds the enumeration bound {max_order}")
    out = []
    for k in range(1, spec.n + 1):
        for h in range(0, k + 1):
            if math.gcd(h, k) != 1:
                continue
            f = Fraction(h, k)
            if member(spec, f):
                out.append(f)
    out.sort()
    return out


def halfsequences(n: int, m: int) -> tuple[list[Fraction], list[Fraction]]:
    """Split the bool family at 1/2; both halves contain 1/2."""
    left = generate_sequence(SequenceSpec(_LEFT, n, m))
    return left, generate_sequence(SequenceSpec(_RIGHT, n, m))


def _g_walk(n: int, m: int, ah: int, ak: int, bh: int, bk: int) -> Iterator[tuple[int, int]]:
    """The terms of gdiff(n, m) from a = ah/ak on, through b = bh/bk.

    a and b must be consecutive in the family; a < b walks up, a > b walks
    down.  The same step serves both directions: the term beyond b is
    c = q*b - a with q the floor of min((a.den + n)/b.den,
    (a.den - a.num + n - m)/(b.den - b.num)).  Yields int pairs (h, k), a
    and b first, and ends after yielding 0/1 or 1/1.

    det(b, q*b - a) = det(a, b) for every integer q, so once det(a, b) is
    +-1 every term is reduced and adjacent to the one before; that is what
    lets callers build Fractions without a gcd.  Each step also certifies
    that c is the next member: c is in the family and the mediant b + c,
    the simplest fraction between them, is not.  With the final endpoint
    check this bounds the walk even if q were wrong.  A failure can only be
    a bug here and raises RuntimeError, which, unlike assert, survives
    python -O.
    """
    sign = ak * bh - ah * bk
    if sign != 1 and sign != -1:
        raise RuntimeError(f"{ah}/{ak} and {bh}/{bk} are not adjacent (det {sign})")
    yield ah, ak
    yield bh, bk
    if not 0 < bh < bk:
        return
    d = n - m
    while True:
        q = (ak + n) // bk
        r = (ak - ah + d) // (bk - bh)
        if r < q:
            q = r
        ch = q * bh - ah
        ck = q * bk - ak
        if ck > n or ck - ch > d or (bk + ck <= n and bk + ck - bh - ch <= d):
            raise RuntimeError(f"gdiff({n}, {m}) step from {ah}/{ak}, {bh}/{bk} gave {ch}/{ck}")
        if not 0 < ch < ck:
            break
        yield ch, ck
        ah, ak, bh, bk = bh, bk, ch, ck
    if ck != 1 or ch not in (0, 1):
        raise RuntimeError(f"gdiff({n}, {m}) walk left [0/1, 1/1] at {ch}/{ck}")
    yield ch, ck


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


def _g_up(n: int, m: int) -> Iterator[tuple[int, int]]:
    """gdiff(n, m) ascending as int pairs, seeded with 0/1 and 1/min(n-m+1, n)."""
    return _g_walk(n, m, 0, 1, 1, min(n - m + 1, n))


def _g_down(n: int, m: int) -> Iterator[tuple[int, int]]:
    """gdiff(n, m) descending as int pairs, seeded with 1/1 and (n-1)/n."""
    return _g_walk(n, m, 1, 1, n - 1, n)


# gdiff onto the bool halves: thm_gdual_to_left and thm_g_to_right.
_GDUAL_TO_LEFT = UnimodularMap(-1, 1, -1, 2)  # h/k -> (k-h)/(2k-h)
_G_TO_RIGHT = UnimodularMap(0, 1, -1, 2)  # h/k -> k/(2k-h)

_Piece = tuple[int, int, UnimodularMap, bool]


def _pieces(spec: SequenceSpec) -> tuple[_Piece, ...]:
    """The family as images of gdiff families, in ascending order.

    A piece (n', m', M, reverses) is the image of gdiff(n', m'), m' >= 0,
    under M; reverses says that M reverses the order.  fnum is gdiff(n, n-m)
    through the mirror h/k -> (k-h)/k (lemma_g_to_f); the bool half up to
    1/2 is gdiff(n-m, n-2m) through h/k -> (k-h)/(2k-h), and the half from
    1/2 on is gdiff(m, 2m-n) through h/k -> k/(2k-h).  bool is both halves,
    which share 1/2, the image of 0/1.
    """
    n, m, kind = spec.n, spec.m, spec.kind
    if m is None:  # full
        return ((n, 0, IDENTITY_MAP, False),)
    # max(x, 0) written out: a builtin call costs as much as the tuple.
    if kind is _GDIFF:
        return ((n, m if m > 0 else 0, IDENTITY_MAP, False),)
    if kind is _FNUM:
        return ((n, n - m if n > m else 0, MIRROR_MAP, True),)
    left = (n - m, n - 2 * m if n > 2 * m else 0, _GDUAL_TO_LEFT, True)
    right = (m, 2 * m - n if 2 * m > n else 0, _G_TO_RIGHT, False)
    if kind is _LEFT:
        return (left,)
    if kind is _RIGHT:
        return (right,)
    return left, right


def _piece(pieces: tuple[_Piece, ...], h: int, k: int, sign: int) -> _Piece:
    """The piece holding the neighbor of h/k before (sign -1) or after (+1) it."""
    return pieces[-1] if 2 * h > k or (2 * h == k and sign > 0) else pieces[0]


def _carried(M: UnimodularMap, pairs: Iterator[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """M applied to every pair; a call of its own, so each walk binds its own M."""
    a, b, c, d = M.a, M.b, M.c, M.d
    return ((a * h + b * k, c * h + d * k) for h, k in pairs)


def _term_pairs(spec: SequenceSpec) -> Iterator[tuple[int, int]]:
    """The terms of spec, ascending, as int pairs (h, k); nothing is materialised.

    Each piece of _pieces is walked up, or down if its map reverses the
    order, and carried over by its map.  A later piece starts on the last
    term of the one before, where the downward walk is checked to end.
    """
    walks = []
    for i, (n, m, M, reverses) in enumerate(_pieces(spec)):
        walk = _g_down(n, m) if reverses else _g_up(n, m)
        if M is not IDENTITY_MAP:
            walk = _carried(M, walk)
        walks.append(islice(walk, 1, None) if i else walk)
    return chain(*walks)


def iterate_g(n: int, m: int) -> Iterator[Fraction]:
    """Yield the gdiff family (k - h <= n - m) ascending from 0/1 to 1/1.

    Seeded with 0/1 and 1/min(n-m+1, n), then advanced by the floor-min
    next-term recurrence on consecutive pairs.  m may be negative; the
    difference bound is then slack and the output equals the full family.
    """
    return (_reduced(h, k) for h, k in _term_pairs(SequenceSpec(_GDIFF, n, m)))


def iterate_f(n: int, m: int) -> Iterator[Fraction]:
    """Yield the fnum family (h <= m) ascending from 0/1 to 1/1.

    Walks the gdiff family with complemented parameter n - m down from 1/1
    and reflects every term through h/k -> (k-h)/k, so the first term comes
    out at once.
    """
    return (_reduced(h, k) for h, k in _term_pairs(SequenceSpec(_FNUM, n, m)))


def generate_boolean(n: int, m: int) -> list[Fraction]:
    """The bool family, assembled from its two halves (see _pieces) without enumeration."""
    return generate_sequence(SequenceSpec(_BOOL, n, m))


def generate_sequence(spec: SequenceSpec) -> list[Fraction]:
    """Recurrence-based counterpart of enumerate_sequence for any spec."""
    return [_reduced(h, k) for h, k in _term_pairs(spec)]
