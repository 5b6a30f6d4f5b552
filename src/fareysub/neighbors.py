"""Closed-form predecessors and successors, no enumeration involved.

For the gdiff family the neighbor of h/k is found by solving a congruence
for the unique starting point x0 in a window of h consecutive integers,
forming y0 from it, and walking t* mediant steps along the ray
(x0 + t*h) / (y0 + t*k).  t* is the smaller of two floors, and is
frequently negative.  Every other family is carried to a gdiff family
and back by the maps of `sequences._pieces`.

Queries run on plain int pairs: each public function checks membership
once on entry, carries the pair back to its piece, steps (the other way if
det M = -1 for the piece's map M), carries the result forward and builds
one Fraction at the end, without a gcd.  The step's result p/q satisfies
k*p - h*q = +-1, which proves it reduced, and the maps keep it so.  The
gdiff functions build no spec: sequences._admit alone states their domain.

Two consecutive terms fix the next one, so sequence_neighbors solves the
congruence once when both neighbors of x lie in one piece, which is
everywhere except at the ends and at 1/2 in bool.  It solves for the gdiff
neighbor before x in that piece and takes the one after from one gdiff
step, sequences._g_step, which certifies it as generation does: the new
term is a member and its mediant with x is not.  The step is written
twice, as _g_step for these queries and inside the run loop of the
generator sequences._g_walk for generation, each the faster form for its
caller (see the sequences module); the tests pin the two to each other.

g_next_from_pair and g_prev_from_pair guard their input with the O(1)
adjacency certificate, computed on the ints: a < b are consecutive iff both
are members, det(a, b) = 1 and their mediant is not a member.  Every
fraction strictly between such a and b is i*a + j*b (on numerators and
denominators) with i, j >= 1, and every membership bound is monotone in
them, so the mediant is the first candidate.  The third term is one call
of _g_step.

All functions are pure; DomainError marks queries outside a sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fraction import HALF, IDENTITY_MAP, DomainError, Fraction, _reduced, make_fraction
from .sequences import SequenceKind, SequenceSpec, _admit, _carried_back, _g_step, _require_member
from .sequences import _BOOL, _FNUM, _GDIFF, _LEFT, _RIGHT, _g_end, _Piece, _piece, _pieces


@dataclass(frozen=True, slots=True)
class NeighborResult:
    """Neighbors of a target fraction; None exactly at the sequence ends."""

    target: Fraction
    predecessor: Fraction | None
    successor: Fraction | None

    # Written by hand like Fraction.__init__; there is nothing to check.
    def __init__(
        self, target: Fraction, predecessor: Fraction | None, successor: Fraction | None
    ) -> None:
        _set_target(self, target)
        _set_predecessor(self, predecessor)
        _set_successor(self, successor)


_set_target = NeighborResult.__dict__["target"].__set__
_set_predecessor = NeighborResult.__dict__["predecessor"].__set__
_set_successor = NeighborResult.__dict__["successor"].__set__


def _require_interior(x: Fraction) -> None:
    if x.den == 1:  # 0/1 or 1/1
        raise DomainError(f"{x} is an endpoint and has no two-sided neighbors")


def _g_pair(n: int, m: int, h: int, k: int, sign: int) -> tuple[int, int]:
    """The neighbor p/q of the interior member h/k of gdiff(n, m), m >= 0.

    sign -1 solves k*x0 = -1 (mod h) and walks to the predecessor, +1 solves
    k*x0 = +1 (mod h) and walks to the successor.  Then k*p - h*q = sign, so
    p/q is reduced.  y0 = (k*x0 - sign) / h is exact: x0 = sign * k^-1
    (mod h) by construction, so h divides k*x0 - sign.  A neighbor outside
    [0/1, 1/1] can only be a bug here and raises RuntimeError, which, unlike
    assert, survives python -O.
    """
    # Unique solution in the window [m-h+1, m]; for h = 1 the congruence is
    # vacuous and the window collapses to x0 = m.
    residue = (sign * pow(k, -1, h)) % h if h > 1 else 0
    x0 = m - (m - residue) % h
    y0 = (k * x0 - sign) // h
    # t* is the smaller of two floors; every denominator is positive.
    t = (n - m + x0 - y0) // (k - h)
    u = (n - y0) // k
    if u < t:
        t = u
    p, q = x0 + t * h, y0 + t * k
    if not 0 <= p <= q:
        raise RuntimeError(f"gdiff({n}, {m}) neighbor of {h}/{k} left [0/1, 1/1] at {p}/{q}")
    return p, q


def _neighbor_pair(pieces: tuple[_Piece, ...], h: int, k: int, sign: int) -> tuple[int, int]:
    """The neighbor before (sign -1) or after (+1) the member h/k, as an int pair.

    h/k must have a neighbor on that side.  The step is taken in the piece
    that holds the neighbor, on h/k carried back to it: an end of the piece
    (denominator 1) reads its neighbor off _g_end, any other member off
    _g_pair.
    """
    n, m, M = _piece(pieces, h, k, sign)
    u, v = _carried_back(M, h, k)
    p, q = _g_end(n, m, u) if v == 1 else _g_pair(n, m, u, v, -sign if M.det < 0 else sign)
    return M.a * p + M.b * q, M.c * p + M.d * q


def _neighbor_pairs(piece: _Piece, h: int, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Both neighbors (before, after) of the interior member h/k, both in piece.

    One congruence solve gives the gdiff neighbor p/q before h/k carried
    back to the piece, and one step of the walk from p/q through it gives
    the neighbor after.  Both are carried forward; a reversing map swaps
    them.
    """
    n, m, M = piece
    if M is IDENTITY_MAP:
        p, q = _g_pair(n, m, h, k, -1)
        return (p, q), _g_step(n, m, p, q, h, k)
    u, v = _carried_back(M, h, k)
    p, q = _g_pair(n, m, u, v, -1)
    r, s = _g_step(n, m, p, q, u, v)
    a, b, c, d = M.a, M.b, M.c, M.d
    before, after = (a * p + b * q, c * p + d * q), (a * r + b * s, c * r + d * s)
    # det M < 0, on the entries already read: M.det cost 2% of a neighbor query.
    return (after, before) if a * d < b * c else (before, after)


def _interior_neighbor(kind: SequenceKind, n: int, m: int, x: Fraction, sign: int) -> Fraction:
    spec = SequenceSpec(kind, n, m)
    _require_member(spec, x)
    _require_interior(x)
    return _reduced(*_neighbor_pair(_pieces(spec), x.num, x.den, sign))


def _require_g_interior(n: int, m: int, x: Fraction) -> None:
    """The checks of _interior_neighbor for gdiff, in its order, with no spec."""
    _admit(_GDIFF, n, m)
    if x.den > n or x.den - x.num > n - m:
        raise DomainError(f"{x} is not in the gdiff family n={n}, m={m}")
    _require_interior(x)


def g_predecessor(n: int, m: int, x: Fraction) -> Fraction:
    """Fraction immediately before x in the gdiff family; x must be interior."""
    _require_g_interior(n, m, x)
    return _reduced(*_g_pair(n, m if m > 0 else 0, x.num, x.den, -1))


def g_successor(n: int, m: int, x: Fraction) -> Fraction:
    """Fraction immediately after x in the gdiff family; x must be interior."""
    _require_g_interior(n, m, x)
    return _reduced(*_g_pair(n, m if m > 0 else 0, x.num, x.den, +1))


def g_unit_fraction_neighbors(n: int, m: int, k: int) -> tuple[Fraction, Fraction]:
    """Both neighbors of 1/k in the gdiff family, for n > 1 and k > 1."""
    if n <= 1 or k <= 1:
        raise DomainError(f"unit-fraction neighbors require n > 1 and k > 1, got n={n}, k={k}")
    _require_g_interior(n, m, Fraction(1, k))
    m = max(m, 0)
    q, u = (n - m - 1) // (k - 1), (n - 1) // k
    q = u if u < q else q
    r, v = (n - m + 1) // (k - 1), (n + 1) // k
    r = v if v < r else r
    return make_fraction(q, k * q + 1), make_fraction(r, k * r - 1)


def _require_g_consecutive(n: int, m: int, a: Fraction, b: Fraction) -> None:
    """The adjacency certificate for a < b in gdiff(n, m); see the module docstring.

    Membership is written out as in member; helper calls slowed a step 10%.
    """
    _admit(_GDIFF, n, m)
    ah, ak, bh, bk, d = a.num, a.den, b.num, b.den, n - m
    if not (
        ak * bh - ah * bk == 1
        and ak <= n
        and ak - ah <= d
        and bk <= n
        and bk - bh <= d
        and (ak + bk > n or ak + bk - ah - bh > d)
    ):
        raise DomainError(f"{a} and {b} are not consecutive in the gdiff family n={n}, m={m}")


def g_next_from_pair(n: int, m: int, prev: Fraction, cur: Fraction) -> Fraction:
    """Third member of a consecutive gdiff triple, given the first two."""
    _require_g_consecutive(n, m, prev, cur)
    term = _g_step(n, m, prev.num, prev.den, cur.num, cur.den)
    if term is None:
        raise DomainError(f"{cur} is the last element; no next term after ({prev}, {cur})")
    return _reduced(term[0], term[1])


def g_prev_from_pair(n: int, m: int, cur: Fraction, nxt: Fraction) -> Fraction:
    """First member of a consecutive gdiff triple, given the last two."""
    _require_g_consecutive(n, m, cur, nxt)
    term = _g_step(n, m, nxt.num, nxt.den, cur.num, cur.den)
    if term is None:
        raise DomainError(f"{cur} is the first element; no term before ({cur}, {nxt})")
    return _reduced(term[0], term[1])


def f_predecessor(n: int, m: int, x: Fraction) -> Fraction:
    """Fraction immediately before x in the fnum family, via reflection."""
    return _interior_neighbor(_FNUM, n, m, x, -1)


def f_successor(n: int, m: int, x: Fraction) -> Fraction:
    """Fraction immediately after x in the fnum family, via reflection."""
    return _interior_neighbor(_FNUM, n, m, x, +1)


_THIRD = Fraction(1, 3)
_TWO_THIRDS = Fraction(2, 3)


def boolean_special_neighbors(n: int, m: int, anchor: Fraction) -> tuple[Fraction, Fraction]:
    """Neighbors of 1/2, 1/3, or 2/3 in the bool family, for n != 2m.

    These are direct piecewise formulas in n and m, split on which of the
    two bounds is the tight one and, for the third-anchors, on parity.
    """
    if n == 2 * m:
        raise DomainError("special-anchor formulas require n != 2m")
    _require_member(SequenceSpec(_BOOL, n, m), anchor)
    if 2 * m > n:
        r = n - m
        if anchor == HALF:
            return make_fraction(r - 1, 2 * r - 1), make_fraction(r + 1, 2 * r + 1)
        if anchor == _TWO_THIRDS:
            a = min(r, (m + 1) // 2)
            b = min(r, (m - 1) // 2)
            return make_fraction(2 * a - 1, 3 * a - 1), make_fraction(2 * b + 1, 3 * b + 1)
        if anchor == _THIRD:
            if r % 2 == 0:
                pred = make_fraction((r - 2) // 2, (3 * r - 4) // 2)
                succ = make_fraction(r // 2, (3 * r - 2) // 2)
            else:
                pred = make_fraction((r - 1) // 2, (3 * r - 1) // 2)
                succ = make_fraction((r + 1) // 2, (3 * r + 1) // 2)
            return pred, succ
    else:
        if anchor == HALF:
            return make_fraction(m, 2 * m + 1), make_fraction(m, 2 * m - 1)
        if anchor == _THIRD:
            # Neighbors of 1/3 below have the shape h/(3h+1) and above the
            # shape h/(3h-1); both constraints (numerator h <= m, difference
            # 2h+-1 <= n-m) must sit inside the min over h.
            a = min(m, (n - m - 1) // 2)
            b = min(m, (n - m + 1) // 2)
            return make_fraction(a, 3 * a + 1), make_fraction(b, 3 * b - 1)
        if anchor == _TWO_THIRDS:
            if m % 2 == 0:
                pred = make_fraction(m - 1, (3 * m - 2) // 2)
                succ = make_fraction(m - 1, (3 * m - 4) // 2)
            else:
                pred = make_fraction(m, (3 * m + 1) // 2)
                succ = make_fraction(m, (3 * m - 1) // 2)
            return pred, succ
    raise DomainError(f"no special-anchor formula for {anchor}; anchors are 1/2, 1/3, 2/3")


def boolean_predecessor(n: int, m: int, x: Fraction) -> Fraction:
    """Fraction immediately before x in the bool family, via half bijections."""
    return _interior_neighbor(_BOOL, n, m, x, -1)


def boolean_successor(n: int, m: int, x: Fraction) -> Fraction:
    """Fraction immediately after x in the bool family, via half bijections."""
    return _interior_neighbor(_BOOL, n, m, x, +1)


def sequence_neighbors(spec: SequenceSpec, x: Fraction) -> NeighborResult:
    """Closed-form neighbors of x within any of the six families.

    The predecessor is None exactly when x is the first element of the
    sequence and the successor is None exactly when x is the last.
    """
    _require_member(spec, x)
    kind, pieces, h, k = spec.kind, _pieces(spec), x.num, x.den
    # x is reduced, so 2h = k means 1/2, h = 0 means 0/1 and h = k means 1/1.
    first = 2 * h == k if kind is _RIGHT else h == 0
    last = 2 * h == k if kind is _LEFT else h == k
    # Two pieces meet only at 1/2 in bool; everywhere else one piece holds both.
    if first or last or len(pieces) > 1 and 2 * h == k:
        pred = None if first else _reduced(*_neighbor_pair(pieces, h, k, -1))
        succ = None if last else _reduced(*_neighbor_pair(pieces, h, k, +1))
        return NeighborResult(x, pred, succ)
    before, after = _neighbor_pairs(_piece(pieces, h, k, -1), h, k)
    return NeighborResult(x, _reduced(*before), _reduced(*after))
