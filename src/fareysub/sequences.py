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
iterators below produce the same sequences through closed-form recurrences
and are the ones to use at scale; the oracle is the trust anchor they are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math
from typing import Iterator

from .fraction import HALF, ONE, ZERO, DomainError, Fraction, make_fraction, mirror

#: Default guard for the quadratic enumeration oracle.
MAX_ENUM_ORDER = 10_000


class SequenceKind(str, Enum):
    FULL = "full"
    FNUM = "fnum"
    GDIFF = "gdiff"
    BOOLEAN = "bool"
    BOOLEAN_LEFT = "bool-left"
    BOOLEAN_RIGHT = "bool-right"


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

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"order must be positive, got n={self.n}")
        if self.kind is SequenceKind.FULL:
            object.__setattr__(self, "m", None)
            return
        if self.m is None:
            raise DomainError(f"kind {self.kind.value!r} requires parameter m")
        if self.kind is SequenceKind.FNUM:
            if self.m < 1:
                raise DomainError(f"fnum requires m >= 1, got m={self.m}")
        elif self.kind is SequenceKind.GDIFF:
            if self.m > self.n - 1:
                raise DomainError(f"gdiff requires m <= n-1, got n={self.n}, m={self.m}")
        else:
            if self.n <= 1 or not 0 < self.m < self.n:
                raise DomainError(
                    f"{self.kind.value} requires n > 1 and 0 < m < n, got n={self.n}, m={self.m}"
                )


def member(spec: SequenceSpec, x: Fraction) -> bool:
    """Membership predicate of x in the sequence described by spec."""
    if x.den > spec.n:
        return False
    if spec.kind is SequenceKind.FULL:
        return True
    m = spec.m
    assert m is not None
    if spec.kind is SequenceKind.FNUM:
        return x.num <= m
    if spec.kind is SequenceKind.GDIFF:
        return x.den - x.num <= spec.n - m
    if x.num > m or x.den - x.num > spec.n - m:
        return False
    if spec.kind is SequenceKind.BOOLEAN_LEFT:
        return 2 * x.num <= x.den
    if spec.kind is SequenceKind.BOOLEAN_RIGHT:
        return 2 * x.num >= x.den
    return True


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


def halfsequences(n: int, m: int, *, max_order: int = MAX_ENUM_ORDER) -> tuple[list[Fraction], list[Fraction]]:
    """Split the bool family at 1/2; both halves contain 1/2."""
    seq = enumerate_sequence(SequenceSpec(SequenceKind.BOOLEAN, n, m), max_order=max_order)
    i = seq.index(HALF)
    return seq[: i + 1], seq[i:]


def _floor_min(num_a: int, den_a: int, num_b: int, den_b: int) -> int:
    """floor(min(num_a/den_a, num_b/den_b)) with den_a > 0.

    den_b == 0 marks the second ratio as +infinity.  The minimum is taken
    over exact rationals first and only the chosen ratio is floored.
    """
    if den_b != 0 and num_b * den_a < num_a * den_b:
        return num_b // den_b
    return num_a // den_a


def iterate_g(n: int, m: int) -> Iterator[Fraction]:
    """Yield the gdiff family (k - h <= n - m) ascending from 0/1 to 1/1.

    Seeded with 0/1 and 1/min(n-m+1, n), then advanced by the floor-min
    next-term recurrence on consecutive pairs.  m may be negative; the
    difference bound is then slack and the output equals the full family.
    """
    if n < 1 or m > n - 1:
        raise DomainError(f"gdiff iteration requires n >= 1 and m <= n-1, got n={n}, m={m}")
    yield ZERO
    cur = make_fraction(1, min(n - m + 1, n))
    yield cur
    prev = ZERO
    while cur != ONE:
        q = _floor_min(prev.den + n, cur.den, prev.den - prev.num + n - m, cur.den - cur.num)
        prev, cur = cur, Fraction(q * cur.num - prev.num, q * cur.den - prev.den)
        yield cur


def iterate_f(n: int, m: int) -> Iterator[Fraction]:
    """Yield the fnum family (h <= m) ascending from 0/1 to 1/1.

    Runs the gdiff iteration with complemented parameter and reflects every
    term through h/k -> (k-h)/k, which reverses the order.
    """
    if n < 1 or m < 1:
        raise DomainError(f"fnum iteration requires n >= 1 and m >= 1, got n={n}, m={m}")
    for g in reversed(list(iterate_g(n, n - m))):
        yield mirror(g)


def generate_boolean(n: int, m: int) -> list[Fraction]:
    """The bool family, assembled from its two halves without enumeration.

    The left half is the image of the fnum family of order n-m under
    h/k -> h/(k+h); the right half is the image of the fnum family of order
    m under the order-reversing h/k -> k/(k+h).  The halves share 1/2.
    """
    if n <= 1 or not 0 < m < n:
        raise DomainError(f"bool generation requires n > 1 and 0 < m < n, got n={n}, m={m}")
    left = [Fraction(f.num, f.den + f.num) for f in iterate_f(n - m, m)]
    right = [Fraction(f.den, f.den + f.num) for f in iterate_f(m, n - m)]
    right.reverse()
    if left[-1] != HALF or right[0] != HALF:
        raise RuntimeError(f"bool halves for n={n}, m={m} do not meet at 1/2")
    return left + right[1:]


def generate_sequence(spec: SequenceSpec) -> list[Fraction]:
    """Recurrence-based counterpart of enumerate_sequence for any spec."""
    if spec.kind is SequenceKind.FULL:
        return list(iterate_g(spec.n, 0))
    assert spec.m is not None
    if spec.kind is SequenceKind.FNUM:
        return list(iterate_f(spec.n, spec.m))
    if spec.kind is SequenceKind.GDIFF:
        return list(iterate_g(spec.n, spec.m))
    seq = generate_boolean(spec.n, spec.m)
    if spec.kind is SequenceKind.BOOLEAN:
        return seq
    i = seq.index(HALF)
    if spec.kind is SequenceKind.BOOLEAN_LEFT:
        return seq[: i + 1]
    return seq[i:]
