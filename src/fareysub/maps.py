"""Registry of the monotone unimodular maps between the sequence families.

Each entry couples a 2x2 integer matrix with the family it maps from and
the family it maps onto, both parameterized by the ambient pair (n, m) of
the bool family the statement lives in.  Each bijection is stated once:
its inverse entry is derived from it, with the inverse matrix and the two
families swapped at the parameters the inverse transform gives.  An entry
is bijective when it names an inverse, and reverses order when det = -1.
`verify_map` checks its images over the enumeration oracle one by one,
and its inverse by the matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .fraction import MIRROR_MAP, DomainError, Fraction, UnimodularMap
from .sequences import SequenceSpec, enumerate_sequence, member
from .sequences import _BOOL, _FNUM, _FULL, _GDIFF, _G_TO_RIGHT, _GDUAL_TO_LEFT, _LEFT, _RIGHT


class Direction(str, Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"


class MapClass(str, Enum):
    BIJECTIVE = "bijective"
    INJECTIVE = "injective"


SpecFactory = Callable[[int, int], SequenceSpec]
ParamTransform = Callable[[int, int], tuple[int, int]]


@dataclass(frozen=True)
class NamedMap:
    """A registered monotone map together with its advertised behavior.

    A bijective entry names its inverse entry, and an injective one names
    none: the class is read off `inverse_id`.  In the catalog each bijection
    is stated once and its inverse entry is derived from it.
    """

    id: str
    matrix: UnimodularMap
    domain: SpecFactory
    codomain: SpecFactory
    constraint: Callable[[int, int], bool] | None = None
    constraint_text: str = ""
    # Identifier of the inverse entry and how (n, m) transforms under it;
    # only bijective entries have one.
    inverse_id: str | None = None
    inverse_params: ParamTransform | None = None

    @property
    def map_class(self) -> MapClass:
        return MapClass.INJECTIVE if self.inverse_id is None else MapClass.BIJECTIVE

    @property
    def direction(self) -> Direction:
        # For h/k < h'/k' the images' cross-difference is det * (h'k - hk').
        return Direction.REVERSING if self.matrix.det < 0 else Direction.PRESERVING

    @property
    def ignores_m(self) -> bool:  # both families full, whose specs take no m
        return self.domain is _full and self.codomain is _full

    def check_constraint(self, n: int, m: int) -> None:
        if self.constraint is not None and not self.constraint(n, m):
            raise DomainError(
                f"map {self.id} requires {self.constraint_text}, got n={n}, m={m}"
            )


def _SAME(n: int, m: int) -> tuple[int, int]:
    return n, m


def _COMPLEMENT(n: int, m: int) -> tuple[int, int]:
    return n, n - m


# A constraint on (n, m) and the text that names it: each involution and
# injection on the halves holds on one side of 2m = n.
_NO_CONSTRAINT = (None, "")
_TWO_M_GE_N = (lambda n, m: 2 * m >= n, "2m >= n")
_TWO_M_LE_N = (lambda n, m: 2 * m <= n, "2m <= n")


def _full(n: int, m: int) -> SequenceSpec:
    return SequenceSpec(_FULL, n)


def _left(n: int, m: int) -> SequenceSpec:
    return SequenceSpec(_LEFT, n, m)


def _right(n: int, m: int) -> SequenceSpec:
    return SequenceSpec(_RIGHT, n, m)


def _bijection(
    id: str, inverse_id: str, matrix: UnimodularMap, domain: SpecFactory, codomain: SpecFactory,
    params: ParamTransform = _SAME,
    constraint: tuple[Callable[[int, int], bool] | None, str] = _NO_CONSTRAINT,
) -> tuple[NamedMap, ...]:
    """The stated bijection, then its inverse, or the stated one alone if it is its own inverse.

    The derived inverse has the inverse matrix, whose determinant is the
    same, so it has the same direction.  At (n, m) its domain is the stated
    codomain at params(n, m), and its codomain the stated domain there;
    params is its own inverse.  A constraint binds the stated entry only; in
    the catalog only involutions have one.
    """
    stated = NamedMap(id, matrix, domain, codomain, *constraint, inverse_id, params)
    if inverse_id == id:
        return (stated,)
    inverse_domain, inverse_codomain = codomain, domain
    if params is not _SAME:
        inverse_domain = lambda n, m: codomain(*params(n, m))  # noqa: E731
        inverse_codomain = lambda n, m: domain(*params(n, m))  # noqa: E731
    return stated, NamedMap(
        inverse_id, matrix.inverse(), inverse_domain, inverse_codomain,
        inverse_id=id, inverse_params=params,
    )


# The order of the entries is part of the interface; where a derived
# inverse comes first, the pair is reversed.  The matrices of lemma_g_to_f,
# thm_g_to_right and thm_gdual_to_left are the objects `sequences._pieces`
# carries the families with.
_CATALOG = (
    *_bijection("mirror_full", "mirror_full", MIRROR_MAP, _full, _full),
    *_bijection(
        "mirror_boolean", "mirror_boolean", MIRROR_MAP,
        lambda n, m: SequenceSpec(_BOOL, n, m), lambda n, m: SequenceSpec(_BOOL, n, n - m),
        _COMPLEMENT,
    ),
    *_bijection(
        "lemma_g_to_f", "lemma_f_to_g", MIRROR_MAP,  # h/k -> (k-h)/k
        lambda n, m: SequenceSpec(_GDIFF, n, m), lambda n, m: SequenceSpec(_FNUM, n, n - m),
        _COMPLEMENT,
    )[::-1],
    *_bijection(
        "thm_left_to_f", "thm_f_to_left", UnimodularMap(1, 0, -1, 1),  # h/k -> h/(k-h)
        _left, lambda n, m: SequenceSpec(_FNUM, n - m, m),
    ),
    *_bijection(
        "thm_g_to_right", "thm_right_to_g", _G_TO_RIGHT,  # h/k -> k/(2k-h)
        lambda n, m: SequenceSpec(_GDIFF, m, 2 * m - n), _right,
    )[::-1],
    *_bijection(
        "thm_gdual_to_left", "thm_left_to_gdual", _GDUAL_TO_LEFT,  # h/k -> (k-h)/(2k-h)
        lambda n, m: SequenceSpec(_GDIFF, n - m, n - 2 * m), _left,
    )[::-1],
    *_bijection(
        "thm_right_to_f", "thm_f_to_right", UnimodularMap(-1, 1, 1, 0),  # h/k -> (k-h)/h
        _right, lambda n, m: SequenceSpec(_FNUM, m, n - m),
    ),
    *_bijection(
        "prop_left_involution", "prop_left_involution",
        UnimodularMap(-2, 1, -3, 2),  # h/k -> (k-2h)/(2k-3h)
        _left, _left, constraint=_TWO_M_GE_N,
    ),
    NamedMap(
        "prop_left_to_right_pres", UnimodularMap(-1, 1, -3, 2),  # h/k -> (k-h)/(2k-3h)
        _left, _right, *_TWO_M_GE_N,
    ),
    NamedMap("prop_left_to_right_rev", MIRROR_MAP, _left, _right, *_TWO_M_GE_N),
    *_bijection(
        "prop_right_involution", "prop_right_involution",
        UnimodularMap(1, 0, 3, -1),  # h/k -> h/(3h-k)
        _right, _right, constraint=_TWO_M_LE_N,
    ),
    NamedMap(
        "prop_right_to_left_pres", UnimodularMap(2, -1, 3, -1),  # h/k -> (2h-k)/(3h-k)
        _right, _left, *_TWO_M_LE_N,
    ),
    NamedMap("prop_right_to_left_rev", MIRROR_MAP, _right, _left, *_TWO_M_LE_N),
)
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
    `verify` map suite at every admissible (n, m).  An image of a domain
    member outside [0/1, 1/1] breaks that claim, so it is an internal fault
    and raises RuntimeError, not DomainError.
    """
    entry = get_map(map_id)
    entry.check_constraint(n, m)
    if not member(entry.domain(n, m), x):
        raise DomainError(f"{x} is not in the domain of {map_id} at n={n}, m={m}")
    try:
        return entry.matrix.apply(x)
    except DomainError:
        raise RuntimeError(f"{map_id} at n={n}, m={m} carries {x} out of [0/1, 1/1]") from None


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

    Checks that every image stays in [0/1, 1/1], strict monotonicity in the
    direction of the determinant (so no collisions), and that bijections hit
    the enumerated codomain exactly (injections land inside it).  The
    registered inverse undoes every fraction exactly when the product of
    the two matrices is +-I, and it must name the matching families.  Each
    failed check names the claim it breaks; the counterexample is the first
    failure, in the order the checks run.  An alternative oracle (for
    example a caching one) may be supplied.
    """
    fetch = oracle if oracle is not None else enumerate_sequence
    entry = get_map(map_id)
    entry.check_constraint(n, m)
    domain = fetch(entry.domain(n, m))
    codomain_spec = entry.codomain(n, m)
    failed: list[tuple[str, str]] = []  # (claim, text), in check order
    images: list[Fraction] = []
    try:
        for x in domain:
            images.append(entry.matrix.apply(x))
    except DomainError as err:
        # Only a wrong matrix carries a domain member out of [0/1, 1/1]; the
        # checks below run on the images before it.
        failed.append(("image", str(err)))

    preserving = entry.direction is Direction.PRESERVING
    for a, b in zip(images, images[1:]):
        if not (a < b if preserving else b < a):
            failed.append(("order", f"order breaks at images {a}, {b}"))
            break

    if entry.map_class is MapClass.BIJECTIVE:
        if (images if preserving else images[::-1]) != fetch(codomain_spec):
            failed.append(("image", "image set differs from the codomain"))
    else:
        for x, y in zip(domain, images):
            if not member(codomain_spec, y):
                failed.append(("image", f"{x} maps to {y}, a non-member"))
                break

    if entry.inverse_id is not None:
        inverse = get_map(entry.inverse_id)
        # The product is +-I exactly when b = c = 0 and a = d, as det = +-1.
        product = inverse.matrix @ entry.matrix
        if product.b or product.c or product.a != product.d:
            failed.append(("inverse", f"{inverse.id} after {map_id} is {product.rows()}, not +-I"))
        # The inverse entry must claim the matching sequences at the
        # transformed parameters.
        n2, m2 = entry.inverse_params(n, m)
        if inverse.domain(n2, m2) != codomain_spec or inverse.codomain(n2, m2) != entry.domain(n, m):
            failed.append(("inverse", f"inverse {inverse.id} points at mismatched sequences"))

    claims = {claim for claim, _ in failed}
    return VerificationReport(
        map_id=map_id,
        n=n,
        m=m,
        domain_size=len(domain),
        monotone="order" not in claims,
        image_ok="image" not in claims,
        roundtrip_ok="inverse" not in claims,
        counterexample=failed[0][1] if failed else None,
    )


def valid_parameter_pairs(map_id: str, max_n: int) -> list[tuple[int, int]]:
    """All (n, m) with n <= max_n at which a map is defined and constrained.

    m runs over 0..n and the specs and the constraint keep what is valid;
    an entry that ignores m takes m = 0 only.
    """
    entry = get_map(map_id)
    pairs = []
    for n in range(1, max_n + 1):
        for m in range(0, 1 if entry.ignores_m else n + 1):
            try:
                entry.check_constraint(n, m)
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
    """The involution equals down-map, reflection of order mirror_order, up-map, pointwise.

    A step that leaves [0/1, 1/1] or the next map's domain makes the identity
    fail; only the involution's constraint raises DomainError.
    """
    involution = get_map(involution_id)
    involution.check_constraint(n, m)
    fetch = oracle if oracle is not None else enumerate_sequence
    for x in fetch(involution.domain(n, m)):
        try:
            step = apply_named(down_id, n, m, x)
            step = apply_named("mirror_full", mirror_order, 0, step)
            step = apply_named(up_id, n, m, step)
            if step != apply_named(involution_id, n, m, x):
                return False
        except (DomainError, RuntimeError):  # off the next domain, or off [0/1, 1/1]
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
