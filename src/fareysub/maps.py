"""Registry of the monotone unimodular maps between the sequence families.

Each entry couples a 2x2 integer matrix with the family it maps from and
the family it maps onto, both parameterized by the ambient pair (n, m) of
the bool family the statement lives in.  Bijective entries carry their
inverse entry and the parameter transform that points the inverse at the
right sequences.  `verify_map` replays a map over the enumeration oracle
and checks every advertised property element by element.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .fraction import MIRROR_MAP, DomainError, Fraction, UnimodularMap
from .sequences import SequenceKind, SequenceSpec, enumerate_sequence, member
from .sequences import _FNUM, _FULL, _GDIFF, _G_TO_RIGHT, _GDUAL_TO_LEFT


class Direction(str, Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"


class MapClass(str, Enum):
    BIJECTIVE = "bijective"
    INJECTIVE = "injective"


SpecFactory = Callable[[int, int], SequenceSpec]


@dataclass(frozen=True)
class NamedMap:
    """A registered monotone map together with its advertised behavior."""

    id: str
    matrix: UnimodularMap
    domain: SpecFactory
    codomain: SpecFactory
    direction: Direction
    map_class: MapClass
    constraint: Callable[[int, int], bool] | None = None
    constraint_text: str = ""
    # Identifier of the inverse entry and how (n, m) transforms under it;
    # only bijective entries have one.
    inverse_id: str | None = None
    inverse_params: Callable[[int, int], tuple[int, int]] | None = None

    def check_constraint(self, n: int, m: int) -> None:
        if self.constraint is not None and not self.constraint(n, m):
            raise DomainError(
                f"map {self.id} requires {self.constraint_text}, got n={n}, m={m}"
            )


def _full(n: int, m: int) -> SequenceSpec:
    return SequenceSpec(_FULL, n)


def _fnum(n_of: Callable[[int, int], int], m_of: Callable[[int, int], int]) -> SpecFactory:
    return lambda n, m: SequenceSpec(_FNUM, n_of(n, m), m_of(n, m))


def _gdiff(n_of: Callable[[int, int], int], m_of: Callable[[int, int], int]) -> SpecFactory:
    return lambda n, m: SequenceSpec(_GDIFF, n_of(n, m), m_of(n, m))


def _bool(kind: SequenceKind, complement: bool = False) -> SpecFactory:
    if complement:
        return lambda n, m: SequenceSpec(kind, n, n - m)
    return lambda n, m: SequenceSpec(kind, n, m)


_LEFT = _bool(SequenceKind.BOOLEAN_LEFT)
_RIGHT = _bool(SequenceKind.BOOLEAN_RIGHT)


def _SAME(n: int, m: int) -> tuple[int, int]:
    return n, m


def _COMPLEMENT(n: int, m: int) -> tuple[int, int]:
    return n, n - m


def _build_catalog() -> tuple[NamedMap, ...]:
    entries = [
        NamedMap(
            "mirror_full",
            MIRROR_MAP,
            _full,
            _full,
            Direction.REVERSING,
            MapClass.BIJECTIVE,
            inverse_id="mirror_full",
            inverse_params=_SAME,
        ),
        NamedMap(
            "mirror_boolean",
            MIRROR_MAP,
            _bool(SequenceKind.BOOLEAN),
            _bool(SequenceKind.BOOLEAN, complement=True),
            Direction.REVERSING,
            MapClass.BIJECTIVE,
            inverse_id="mirror_boolean",
            inverse_params=_COMPLEMENT,
        ),
        NamedMap(
            "lemma_f_to_g",
            MIRROR_MAP,
            _fnum(lambda n, m: n, lambda n, m: m),
            _gdiff(lambda n, m: n, lambda n, m: n - m),
            Direction.REVERSING,
            MapClass.BIJECTIVE,
            inverse_id="lemma_g_to_f",
            inverse_params=_COMPLEMENT,
        ),
        NamedMap(
            "lemma_g_to_f",
            MIRROR_MAP,
            _gdiff(lambda n, m: n, lambda n, m: m),
            _fnum(lambda n, m: n, lambda n, m: n - m),
            Direction.REVERSING,
            MapClass.BIJECTIVE,
            inverse_id="lemma_f_to_g",
            inverse_params=_COMPLEMENT,
        ),
        NamedMap(
            "thm_left_to_f",
            UnimodularMap(1, 0, -1, 1),  # h/k -> h/(k-h)
            _LEFT,
            _fnum(lambda n, m: n - m, lambda n, m: m),
            Direction.PRESERVING,
            MapClass.BIJECTIVE,
            inverse_id="thm_f_to_left",
            inverse_params=_SAME,
        ),
        NamedMap(
            "thm_f_to_left",
            UnimodularMap(1, 0, 1, 1),  # h/k -> h/(k+h)
            _fnum(lambda n, m: n - m, lambda n, m: m),
            _LEFT,
            Direction.PRESERVING,
            MapClass.BIJECTIVE,
            inverse_id="thm_left_to_f",
            inverse_params=_SAME,
        ),
        NamedMap(
            "thm_right_to_g",
            _G_TO_RIGHT.inverse(),  # h/k -> (2h-k)/h
            _RIGHT,
            _gdiff(lambda n, m: m, lambda n, m: 2 * m - n),
            Direction.PRESERVING,
            MapClass.BIJECTIVE,
            inverse_id="thm_g_to_right",
            inverse_params=_SAME,
        ),
        NamedMap(
            "thm_g_to_right",
            _G_TO_RIGHT,  # h/k -> k/(2k-h)
            _gdiff(lambda n, m: m, lambda n, m: 2 * m - n),
            _RIGHT,
            Direction.PRESERVING,
            MapClass.BIJECTIVE,
            inverse_id="thm_right_to_g",
            inverse_params=_SAME,
        ),
        NamedMap(
            "thm_left_to_gdual",
            _GDUAL_TO_LEFT.inverse(),  # h/k -> (k-2h)/(k-h)
            _LEFT,
            _gdiff(lambda n, m: n - m, lambda n, m: n - 2 * m),
            Direction.REVERSING,
            MapClass.BIJECTIVE,
            inverse_id="thm_gdual_to_left",
            inverse_params=_SAME,
        ),
        NamedMap(
            "thm_gdual_to_left",
            _GDUAL_TO_LEFT,  # h/k -> (k-h)/(2k-h)
            _gdiff(lambda n, m: n - m, lambda n, m: n - 2 * m),
            _LEFT,
            Direction.REVERSING,
            MapClass.BIJECTIVE,
            inverse_id="thm_left_to_gdual",
            inverse_params=_SAME,
        ),
        NamedMap(
            "thm_right_to_f",
            UnimodularMap(-1, 1, 1, 0),  # h/k -> (k-h)/h
            _RIGHT,
            _fnum(lambda n, m: m, lambda n, m: n - m),
            Direction.REVERSING,
            MapClass.BIJECTIVE,
            inverse_id="thm_f_to_right",
            inverse_params=_SAME,
        ),
        NamedMap(
            "thm_f_to_right",
            UnimodularMap(0, 1, 1, 1),  # h/k -> k/(k+h)
            _fnum(lambda n, m: m, lambda n, m: n - m),
            _RIGHT,
            Direction.REVERSING,
            MapClass.BIJECTIVE,
            inverse_id="thm_right_to_f",
            inverse_params=_SAME,
        ),
        NamedMap(
            "prop_left_involution",
            UnimodularMap(-2, 1, -3, 2),  # h/k -> (k-2h)/(2k-3h)
            _LEFT,
            _LEFT,
            Direction.REVERSING,
            MapClass.BIJECTIVE,
            constraint=lambda n, m: 2 * m >= n,
            constraint_text="2m >= n",
            inverse_id="prop_left_involution",
            inverse_params=_SAME,
        ),
        NamedMap(
            "prop_left_to_right_pres",
            UnimodularMap(-1, 1, -3, 2),  # h/k -> (k-h)/(2k-3h)
            _LEFT,
            _RIGHT,
            Direction.PRESERVING,
            MapClass.INJECTIVE,
            constraint=lambda n, m: 2 * m >= n,
            constraint_text="2m >= n",
        ),
        NamedMap(
            "prop_left_to_right_rev",
            MIRROR_MAP,
            _LEFT,
            _RIGHT,
            Direction.REVERSING,
            MapClass.INJECTIVE,
            constraint=lambda n, m: 2 * m >= n,
            constraint_text="2m >= n",
        ),
        NamedMap(
            "prop_right_involution",
            UnimodularMap(1, 0, 3, -1),  # h/k -> h/(3h-k)
            _RIGHT,
            _RIGHT,
            Direction.REVERSING,
            MapClass.BIJECTIVE,
            constraint=lambda n, m: 2 * m <= n,
            constraint_text="2m <= n",
            inverse_id="prop_right_involution",
            inverse_params=_SAME,
        ),
        NamedMap(
            "prop_right_to_left_pres",
            UnimodularMap(2, -1, 3, -1),  # h/k -> (2h-k)/(3h-k)
            _RIGHT,
            _LEFT,
            Direction.PRESERVING,
            MapClass.INJECTIVE,
            constraint=lambda n, m: 2 * m <= n,
            constraint_text="2m <= n",
        ),
        NamedMap(
            "prop_right_to_left_rev",
            MIRROR_MAP,
            _RIGHT,
            _LEFT,
            Direction.REVERSING,
            MapClass.INJECTIVE,
            constraint=lambda n, m: 2 * m <= n,
            constraint_text="2m <= n",
        ),
    ]
    return tuple(entries)


_CATALOG = _build_catalog()
_BY_ID = {entry.id: entry for entry in _CATALOG}


def catalog() -> tuple[NamedMap, ...]:
    """All eighteen registered maps, in a stable order."""
    return _CATALOG


def get_map(map_id: str) -> NamedMap:
    entry = _BY_ID.get(map_id)
    if entry is None:
        raise DomainError(f"unknown map id {map_id!r}; known ids: {', '.join(sorted(_BY_ID))}")
    return entry


def apply_named(map_id: str, n: int, m: int, x: Fraction) -> Fraction:
    """Apply a registered map at parameters (n, m) to a domain element x.

    x is checked against the domain.  The image is not checked against the
    codomain: that the map carries its domain into its codomain is the
    catalog's claim, which `verify_map` checks element by element and the
    `verify` map suite at every admissible (n, m).
    """
    entry = get_map(map_id)
    entry.check_constraint(n, m)
    if not member(entry.domain(n, m), x):
        raise DomainError(f"{x} is not in the domain of {map_id} at n={n}, m={m}")
    return entry.matrix.apply(x)


@dataclass(frozen=True)
class VerificationReport:
    """Element-by-element verdict for one map at one parameter pair."""

    map_id: str
    n: int
    m: int
    domain_size: int
    monotone: bool
    image_ok: bool
    roundtrip_ok: bool
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.monotone and self.image_ok and self.roundtrip_ok


Oracle = Callable[[SequenceSpec], list[Fraction]]


def verify_map(map_id: str, n: int, m: int, *, oracle: Oracle | None = None) -> VerificationReport:
    """Enumerate the domain, map every element, and check all claims.

    Checks monotonicity in the declared direction, that bijections hit the
    enumerated codomain exactly (injections land inside it without
    collisions), and that the registered inverse undoes every element.
    An alternative oracle (for example a caching one) may be supplied.
    """
    fetch = oracle if oracle is not None else enumerate_sequence
    entry = get_map(map_id)
    entry.check_constraint(n, m)
    domain = fetch(entry.domain(n, m))
    codomain_spec = entry.codomain(n, m)
    images = [entry.matrix.apply(x) for x in domain]

    counterexample = None
    monotone = True
    preserving = entry.direction is Direction.PRESERVING
    for a, b in zip(images, images[1:]):
        if (a < b) != preserving:
            monotone = False
            counterexample = f"order breaks at images {a}, {b}"
            break

    image_ok = True
    if entry.map_class is MapClass.BIJECTIVE:
        codomain = fetch(codomain_spec)
        expected = images if preserving else images[::-1]
        if expected != codomain:
            image_ok = False
            if counterexample is None:
                counterexample = "image set differs from the codomain"
    else:
        seen = set()
        for x, y in zip(domain, images):
            if y in seen or not member(codomain_spec, y):
                image_ok = False
                if counterexample is None:
                    counterexample = f"{x} maps to {y}, a collision or a non-member"
                break
            seen.add(y)

    roundtrip_ok = True
    if entry.inverse_id is not None:
        assert entry.inverse_params is not None
        inverse = get_map(entry.inverse_id)
        back = inverse.matrix
        for x, y in zip(domain, images):
            if back.apply(y) != x:
                roundtrip_ok = False
                if counterexample is None:
                    counterexample = f"{x} -> {y} does not return through {entry.inverse_id}"
                break
        # The inverse entry must claim the matching sequences at the
        # transformed parameters.
        n2, m2 = entry.inverse_params(n, m)
        if inverse.domain(n2, m2) != codomain_spec or inverse.codomain(n2, m2) != entry.domain(n, m):
            roundtrip_ok = False
            if counterexample is None:
                counterexample = f"inverse {entry.inverse_id} points at mismatched sequences"

    return VerificationReport(
        map_id=map_id,
        n=n,
        m=m,
        domain_size=len(domain),
        monotone=monotone,
        image_ok=image_ok,
        roundtrip_ok=roundtrip_ok,
        counterexample=counterexample,
    )


def valid_parameter_pairs(map_id: str, max_n: int) -> list[tuple[int, int]]:
    """All (n, m) with n <= max_n at which a map is defined and constrained.

    m runs over 0..n and the specs and the constraint keep what is valid;
    mirror_full, whose specs ignore m, takes m = 0 only.
    """
    entry = get_map(map_id)
    pairs = []
    for n in range(1, max_n + 1):
        for m in range(0, 1 if entry.id == "mirror_full" else n + 1):
            if entry.constraint is not None and not entry.constraint(n, m):
                continue
            try:
                entry.domain(n, m)
                entry.codomain(n, m)
            except DomainError:
                continue
            pairs.append((n, m))
    return pairs


def _composite_identity(
    involution_id: str, down_id: str, up_id: str, mirror_order: int, n: int, m: int,
    oracle: Oracle | None,
) -> bool:
    """The involution equals down-map, reflection of order mirror_order, up-map, pointwise."""
    involution = get_map(involution_id)
    involution.check_constraint(n, m)
    fetch = oracle if oracle is not None else enumerate_sequence
    for x in fetch(involution.domain(n, m)):
        step = apply_named(down_id, n, m, x)
        step = apply_named("mirror_full", mirror_order, 0, step)
        step = apply_named(up_id, n, m, step)
        if step != apply_named(involution_id, n, m, x):
            return False
    return True


def composite_left_identity(n: int, m: int, *, oracle: Oracle | None = None) -> bool:
    """The left involution equals down-map, reflection, up-map, pointwise.

    Requires 2m >= n, where the order-(n-m) fnum family is the whole Farey
    sequence of that order, so the middle reflection is defined on it.
    """
    return _composite_identity(
        "prop_left_involution", "thm_left_to_f", "thm_f_to_left", n - m, n, m, oracle
    )


def composite_right_identity(n: int, m: int, *, oracle: Oracle | None = None) -> bool:
    """The right involution equals down-map, reflection, up-map, pointwise."""
    return _composite_identity(
        "prop_right_involution", "thm_right_to_g", "thm_g_to_right", m, n, m, oracle
    )
