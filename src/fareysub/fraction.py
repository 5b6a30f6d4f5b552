"""Reduced fractions in [0, 1] and unimodular integer matrices acting on them.

Fractions are stored reduced, with 0/1 and 1/1 as the canonical endpoints.
Everything here is exact integer arithmetic; no value is ever converted to
float.  All types are immutable and all functions are pure, so they can be
shared freely across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


@dataclass(frozen=True, slots=True)
class Fraction:
    """A reduced fraction num/den with 0 <= num <= den and den > 0."""

    num: int
    den: int

    # Written by hand: the __init__ dataclass generates for a frozen class
    # sets each field through object.__setattr__ and then calls a separate
    # __post_init__; writing the slots through their descriptors (bound
    # below the class) costs less.
    def __init__(self, num: int, den: int) -> None:
        if den <= 0:
            raise DomainError(f"denominator must be positive, got {den}")
        if not 0 <= num <= den:
            raise DomainError(f"{num}/{den} is outside [0/1, 1/1]")
        if math.gcd(num, den) != 1:
            raise DomainError(f"{num}/{den} is not reduced")
        _set_num(self, num)
        _set_den(self, den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    # Written by hand with the semantics of the generated __eq__, which
    # builds a tuple of the fields of each side on every call.  dataclass
    # still generates __hash__, from the same fields.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.num == other.num and self.den == other.den  # type: ignore[attr-defined]
        return NotImplemented

    # Total order by cross multiplication; denominators are positive.
    def __lt__(self, other: "Fraction") -> bool:
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "Fraction") -> bool:
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other: "Fraction") -> bool:
        return self.num * other.den > other.num * self.den

    def __ge__(self, other: "Fraction") -> bool:
        return self.num * other.den >= other.num * self.den


_new_object = object.__new__
_set_num = Fraction.__dict__["num"].__set__
_set_den = Fraction.__dict__["den"].__set__


def _reduced(h: int, k: int) -> Fraction:
    """Fraction h/k built without __init__'s checks or its gcd.

    Only for callers that have proved 0 <= h <= k, k > 0 and gcd(h, k) = 1:
    the generation kernel, the neighbor steps, UnimodularMap.apply and
    counting.rank (a member carried back into its piece) prove it by
    determinant and range checks, and the enumeration oracle by crossing off
    the multiples of k's prime factors.  The oracle also hands member, which
    reads the pair alone, unreduced probes of the pairs just outside each
    scanned range.  The slot descriptors write the fields directly, so the
    result is indistinguishable from Fraction(h, k) and stays frozen.
    """
    f = _new_object(Fraction)
    _set_num(f, h)
    _set_den(f, k)
    return f


def _reduced_run(hs: Sequence[int], ks: Sequence[int]) -> list[Fraction]:
    """The Fractions hs[i]/ks[i], built as _reduced builds one, with its contract.

    Each step is one map at C level: the objects, then each slot over all
    of them (a setter returns None, so any() drains its map).  Generation
    builds its terms a run at a time here, at 70-80% of the cost of a
    _reduced call per term on CPython 3.11.
    """
    fs = list(map(_new_object, repeat(Fraction, len(hs))))
    any(map(_set_num, fs, hs))
    any(map(_set_den, fs, ks))
    return fs


ZERO = Fraction(0, 1)
ONE = Fraction(1, 1)
HALF = Fraction(1, 2)

_FRACTION_RE = re.compile(r"(\d+)/(\d+)")


def make_fraction(h: int, k: int) -> Fraction:
    """Reduce h/k to canonical form; h/k must lie in [0, 1] with k > 0."""
    if k <= 0:
        raise DomainError(f"denominator must be positive, got {k}")
    if not 0 <= h <= k:
        raise DomainError(f"{h}/{k} is outside [0/1, 1/1]")
    g = math.gcd(h, k)
    return Fraction(h // g, k // g)


def parse_fraction(text: str) -> Fraction:
    """Parse the textual form "h/k"; only reduced fractions are accepted."""
    match = _FRACTION_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"expected a fraction of the form 'h/k', got {text!r}")
    h, k = int(match.group(1)), int(match.group(2))
    if k == 0:
        raise ValueError(f"zero denominator in {text!r}")
    g = math.gcd(h, k)
    if g != 1:
        raise ValueError(f"{text!r} is not reduced; did you mean '{h // g}/{k // g}'?")
    if h > k:
        raise ValueError(f"{text!r} is outside [0/1, 1/1]")
    return Fraction(h, k)


def mediant(x: Fraction, y: Fraction) -> Fraction:
    """Reduced mediant (x.num + y.num)/(x.den + y.den).

    For neighboring fractions of a Farey-type sequence this reconstructs the
    middle term of a consecutive triple.
    """
    return make_fraction(x.num + y.num, x.den + y.den)


def adjacency_determinant(x: Fraction, y: Fraction) -> int:
    """x.den*y.num - x.num*y.den; equals 1 for consecutive sequence members."""
    return x.den * y.num - x.num * y.den


def mirror(x: Fraction) -> Fraction:
    """The order-reversing involution h/k -> (k-h)/k, the action of MIRROR_MAP."""
    return MIRROR_MAP.apply(x)


@dataclass(frozen=True, slots=True)
class UnimodularMap:
    """Integer matrix [[a, b], [c, d]] with determinant +1 or -1.

    Acts on a fraction h/k through its vector presentation [h, k]:
    h/k maps to (a*h + b*k)/(c*h + d*k).
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.det not in (1, -1):
            raise DomainError(f"matrix {self.rows()} has determinant {self.det}")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.a, self.b), (self.c, self.d)

    def inverse(self) -> "UnimodularMap":
        """Exact integer inverse (the adjugate divided by the determinant)."""
        if self.det == 1:
            return UnimodularMap(self.d, -self.b, -self.c, self.a)
        return UnimodularMap(-self.d, self.b, self.c, -self.a)

    def __matmul__(self, other: "UnimodularMap") -> "UnimodularMap":
        return UnimodularMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, x: Fraction) -> Fraction:
        num = self.a * x.num + self.b * x.den
        den = self.c * x.num + self.d * x.den
        if den <= 0 or not 0 <= num <= den:
            raise DomainError(
                f"image {num}/{den} of {x} under {self.rows()} leaves [0/1, 1/1]; "
                "the fraction is not in this map's domain"
            )
        # |det| = 1 keeps a reduced pair reduced, so a 0 numerator comes
        # with den = 1 and the image needs no gcd.
        return _reduced(num, den)


IDENTITY_MAP = UnimodularMap(1, 0, 0, 1)
MIRROR_MAP = UnimodularMap(-1, 1, 0, 1)
