"""Closed-form predecessors and successors, no enumeration involved.

For the gdiff family the neighbor of h/k is found by solving a congruence
for the unique starting point x0 in a window of h consecutive integers,
forming y0 from it, and walking t* mediant steps along the ray
(x0 + t*h) / (y0 + t*k).  t* is the floor of an exact rational minimum and
is frequently negative.  Neighbors in the fnum family come from reflecting
the gdiff construction through h/k -> (k-h)/k, and neighbors in the bool
family come from transporting the query through the order-preserving half
bijections.

All functions are pure; DomainError marks queries outside a sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .fraction import (
    HALF,
    ONE,
    ZERO,
    DomainError,
    Fraction,
    UnimodularMap,
    _reduced,
    make_fraction,
    mirror,
)
from .sequences import SequenceKind, SequenceSpec, _g_walk, member

# The four half-to-family bijections used to transport bool queries.
_LEFT_TO_F = UnimodularMap(1, 0, -1, 1)  # h/k -> h/(k-h), order-preserving
_F_TO_LEFT = UnimodularMap(1, 0, 1, 1)  # h/k -> h/(k+h), order-preserving
_RIGHT_TO_G = UnimodularMap(2, -1, 1, 0)  # h/k -> (2h-k)/h, order-preserving
_G_TO_RIGHT = UnimodularMap(0, 1, -1, 2)  # h/k -> k/(2k-h), order-preserving


@dataclass(frozen=True, slots=True)
class NeighborResult:
    """Neighbors of a target fraction; None exactly at the sequence ends."""

    target: Fraction
    predecessor: Fraction | None
    successor: Fraction | None


def _require_g_member(n: int, m: int, x: Fraction) -> None:
    if not member(SequenceSpec(SequenceKind.GDIFF, n, m), x):
        raise DomainError(f"{x} is not in the gdiff family n={n}, m={m}")


def _require_interior(x: Fraction) -> None:
    if x == ZERO or x == ONE:
        raise DomainError(f"{x} is an endpoint and has no two-sided neighbors")


def _floor_min(num_a: int, den_a: int, num_b: int, den_b: int) -> int:
    """floor(min(num_a/den_a, num_b/den_b)) with den_a > 0.

    den_b == 0 marks the second ratio as +infinity.  The minimum is taken
    over exact rationals first and only the chosen ratio is floored.
    """
    if den_b != 0 and num_b * den_a < num_a * den_b:
        return num_b // den_b
    return num_a // den_a


def _g_step(n: int, m: int, x: Fraction, residue_sign: int) -> Fraction:
    """Shared body of the gdiff predecessor/successor construction.

    residue_sign -1 solves k*x0 = -1 (mod h) and walks to the predecessor,
    +1 solves k*x0 = +1 (mod h) and walks to the successor.
    """
    h, k = x.num, x.den
    # Unique solution in the window [m-h+1, m]; for h = 1 the congruence is
    # vacuous and the window collapses to x0 = m.
    residue = (residue_sign * pow(k, -1, h)) % h if h > 1 else 0
    x0 = m - (m - residue) % h
    y0, rem = divmod(k * x0 - residue_sign, h)
    if rem != 0:
        raise RuntimeError(f"k*x0 - {residue_sign} is not divisible by h for x={x}, x0={x0}")
    t = _floor_min(n - m + x0 - y0, k - h, n - y0, k)
    return make_fraction(x0 + t * h, y0 + t * k)


def g_predecessor(n: int, m: int, x: Fraction) -> Fraction:
    """Fraction immediately before x in the gdiff family; x must be interior."""
    _require_g_member(n, m, x)
    _require_interior(x)
    return _g_step(n, max(m, 0), x, -1)


def g_successor(n: int, m: int, x: Fraction) -> Fraction:
    """Fraction immediately after x in the gdiff family; x must be interior."""
    _require_g_member(n, m, x)
    _require_interior(x)
    return _g_step(n, max(m, 0), x, +1)


def g_unit_fraction_neighbors(n: int, m: int, k: int) -> tuple[Fraction, Fraction]:
    """Both neighbors of 1/k in the gdiff family, for n > 1 and k > 1."""
    if n <= 1 or k <= 1:
        raise DomainError(f"unit-fraction neighbors require n > 1 and k > 1, got n={n}, k={k}")
    x = Fraction(1, k)
    _require_g_member(n, m, x)
    m = max(m, 0)
    q = _floor_min(n - m - 1, k - 1, n - 1, k)
    r = _floor_min(n - m + 1, k - 1, n + 1, k)
    return make_fraction(q, k * q + 1), make_fraction(r, k * r - 1)


def _g_second(n: int, m: int) -> Fraction:
    """The element right after 0/1 in the gdiff family."""
    return make_fraction(1, min(n - m + 1, n))


def _g_penultimate(n: int) -> Fraction:
    """The element right before 1/1 in any gdiff family of order n."""
    return make_fraction(n - 1, n) if n > 1 else ZERO


def _is_g_consecutive(n: int, m: int, a: Fraction, b: Fraction) -> bool:
    spec = SequenceSpec(SequenceKind.GDIFF, n, m)
    if not (member(spec, a) and member(spec, b) and a < b):
        return False
    if a == ZERO:
        return b == _g_second(n, m)
    return g_successor(n, m, a) == b


def g_next_from_pair(n: int, m: int, prev: Fraction, cur: Fraction) -> Fraction:
    """Third member of a consecutive gdiff triple, given the first two."""
    if not _is_g_consecutive(n, m, prev, cur):
        raise DomainError(f"{prev} and {cur} are not consecutive in the gdiff family n={n}, m={m}")
    for h, k in islice(_g_walk(n, m, prev.num, prev.den, cur.num, cur.den), 2, None):
        return _reduced(h, k)
    raise DomainError(f"{cur} is the last element; no next term after ({prev}, {cur})")


def g_prev_from_pair(n: int, m: int, cur: Fraction, nxt: Fraction) -> Fraction:
    """First member of a consecutive gdiff triple, given the last two."""
    if not _is_g_consecutive(n, m, cur, nxt):
        raise DomainError(f"{cur} and {nxt} are not consecutive in the gdiff family n={n}, m={m}")
    for h, k in islice(_g_walk(n, m, nxt.num, nxt.den, cur.num, cur.den), 2, None):
        return _reduced(h, k)
    raise DomainError(f"{cur} is the first element; no term before ({cur}, {nxt})")


def _require_f_member(n: int, m: int, x: Fraction) -> None:
    if not member(SequenceSpec(SequenceKind.FNUM, n, m), x):
        raise DomainError(f"{x} is not in the fnum family n={n}, m={m}")


def f_predecessor(n: int, m: int, x: Fraction) -> Fraction:
    """Fraction immediately before x in the fnum family, via reflection."""
    _require_f_member(n, m, x)
    _require_interior(x)
    return mirror(g_successor(n, n - min(m, n), mirror(x)))


def f_successor(n: int, m: int, x: Fraction) -> Fraction:
    """Fraction immediately after x in the fnum family, via reflection."""
    _require_f_member(n, m, x)
    _require_interior(x)
    return mirror(g_predecessor(n, n - min(m, n), mirror(x)))


def _f_second(n: int) -> Fraction:
    """The element right after 0/1 in any fnum family of order n."""
    return mirror(_g_penultimate(n))


def _f_penultimate(n: int, m: int) -> Fraction:
    """The element right before 1/1 in the fnum family."""
    return mirror(_g_second(n, n - min(m, n)))


_THIRD = Fraction(1, 3)
_TWO_THIRDS = Fraction(2, 3)


def boolean_special_neighbors(n: int, m: int, anchor: Fraction) -> tuple[Fraction, Fraction]:
    """Neighbors of 1/2, 1/3, or 2/3 in the bool family, for n != 2m.

    These are direct piecewise formulas in n and m, split on which of the
    two bounds is the tight one and, for the third-anchors, on parity.
    """
    if n == 2 * m:
        raise DomainError("special-anchor formulas require n != 2m")
    if not member(SequenceSpec(SequenceKind.BOOLEAN, n, m), anchor):
        raise DomainError(f"{anchor} is not in the bool family n={n}, m={m}")
    if 2 * m > n:
        r = n - m
        if anchor == HALF:
            return make_fraction(r - 1, 2 * r - 1), make_fraction(r + 1, 2 * r + 1)
        if anchor == _TWO_THIRDS:
            a = min(r, (m + 1) // 2)
            b = min(r, (m - 1) // 2)
            return make_fraction(2 * a - 1, 3 * a - 1), make_fraction(2 * b + 1, 3 * b + 1)
        if anchor == _THIRD:
            if r <= 1:
                raise DomainError(f"1/3 needs n - m > 1, got n={n}, m={m}")
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
            if m <= 1:
                raise DomainError(f"2/3 needs m > 1, got n={n}, m={m}")
            if m % 2 == 0:
                pred = make_fraction(m - 1, (3 * m - 2) // 2)
                succ = make_fraction(m - 1, (3 * m - 4) // 2)
            else:
                pred = make_fraction(m, (3 * m + 1) // 2)
                succ = make_fraction(m, (3 * m - 1) // 2)
            return pred, succ
    raise DomainError(f"no special-anchor formula for {anchor}; anchors are 1/2, 1/3, 2/3")


def _require_bool_member(n: int, m: int, x: Fraction) -> None:
    if not member(SequenceSpec(SequenceKind.BOOLEAN, n, m), x):
        raise DomainError(f"{x} is not in the bool family n={n}, m={m}")


def boolean_predecessor(n: int, m: int, x: Fraction) -> Fraction:
    """Fraction immediately before x in the bool family, via half bijections."""
    _require_bool_member(n, m, x)
    _require_interior(x)
    if x < HALF:
        return _F_TO_LEFT.apply(f_predecessor(n - m, m, _LEFT_TO_F.apply(x)))
    if x == HALF:
        return _F_TO_LEFT.apply(_f_penultimate(n - m, m))
    return _G_TO_RIGHT.apply(g_predecessor(m, max(2 * m - n, 0), _RIGHT_TO_G.apply(x)))


def boolean_successor(n: int, m: int, x: Fraction) -> Fraction:
    """Fraction immediately after x in the bool family, via half bijections."""
    _require_bool_member(n, m, x)
    _require_interior(x)
    if x < HALF:
        return _F_TO_LEFT.apply(f_successor(n - m, m, _LEFT_TO_F.apply(x)))
    if x == HALF:
        return _G_TO_RIGHT.apply(_g_second(m, max(2 * m - n, 0)))
    return _G_TO_RIGHT.apply(g_successor(m, max(2 * m - n, 0), _RIGHT_TO_G.apply(x)))


def _boolean_second(n: int, m: int) -> Fraction:
    return _F_TO_LEFT.apply(_f_second(n - m))


def _boolean_penultimate(n: int, m: int) -> Fraction:
    # (m-1)/m is the penultimate of the transported right half; for m = 1 the
    # half is (1/2, 1/1) and _g_penultimate degenerates to 0/1 -> 1/2.
    return _G_TO_RIGHT.apply(_g_penultimate(m))


def sequence_neighbors(spec: SequenceSpec, x: Fraction) -> NeighborResult:
    """Closed-form neighbors of x within any of the six families.

    The predecessor is None exactly when x is the first element of the
    sequence and the successor is None exactly when x is the last.
    """
    if not member(spec, x):
        raise DomainError(f"{x} is not in the {spec.kind.value} family n={spec.n}, m={spec.m}")
    n = spec.n
    kind = spec.kind
    if kind in (SequenceKind.FULL, SequenceKind.GDIFF):
        m = 0 if kind is SequenceKind.FULL else spec.m
        assert m is not None
        pred = None if x == ZERO else _g_penultimate(n) if x == ONE else g_predecessor(n, m, x)
        succ = None if x == ONE else _g_second(n, m) if x == ZERO else g_successor(n, m, x)
        return NeighborResult(x, pred, succ)
    if kind is SequenceKind.FNUM:
        m = spec.m
        assert m is not None
        pred = None if x == ZERO else _f_penultimate(n, m) if x == ONE else f_predecessor(n, m, x)
        succ = None if x == ONE else _f_second(n) if x == ZERO else f_successor(n, m, x)
        return NeighborResult(x, pred, succ)
    m = spec.m
    assert m is not None
    lo, hi = ZERO, ONE
    if kind is SequenceKind.BOOLEAN_LEFT:
        hi = HALF
    elif kind is SequenceKind.BOOLEAN_RIGHT:
        lo = HALF
    pred = None
    if x != lo:
        pred = _boolean_penultimate(n, m) if x == ONE else boolean_predecessor(n, m, x)
    succ = None
    if x != hi:
        succ = _boolean_second(n, m) if x == ZERO else boolean_successor(n, m, x)
    return NeighborResult(x, pred, succ)
