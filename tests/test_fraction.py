import dataclasses

import pytest

from fareysub import (
    DomainError,
    Fraction,
    IDENTITY_MAP,
    MIRROR_MAP,
    UnimodularMap,
    adjacency_determinant,
    catalog,
    make_fraction,
    mediant,
    mirror,
    parse_fraction,
)
from fareysub.fraction import _reduced
from fareysub.sequences import SequenceKind


@pytest.mark.parametrize(
    "h, k, expected",
    [(2, 4, "1/2"), (0, 7, "0/1"), (5, 6, "5/6"), (1, 1, "1/1"), (6, 8, "3/4")],
)
def test_make_fraction_reduces(h, k, expected):
    assert str(make_fraction(h, k)) == expected


@pytest.mark.parametrize("h, k", [(1, 0), (1, -3), (-1, 2), (3, 2)])
def test_make_fraction_rejects_out_of_domain(h, k):
    with pytest.raises(DomainError):
        make_fraction(h, k)


def test_constructor_enforces_invariants():
    with pytest.raises(DomainError):
        Fraction(2, 4)  # not reduced
    with pytest.raises(DomainError):
        Fraction(3, 2)  # outside [0, 1]
    with pytest.raises(DomainError):
        Fraction(1, -2)


def test_parse_and_format_roundtrip(oracle):
    for f in oracle(SequenceKind.FULL, 12):
        assert parse_fraction(str(f)) == f


@pytest.mark.parametrize(
    "text, hint",
    [
        ("2/4", "1/2"),
        ("0/7", "0/1"),
        ("abc", "h/k"),
        ("1/0", "denominator"),
        ("3/2", "outside"),
        ("1 / 2", "h/k"),
        ("-1/2", "h/k"),
    ],
)
def test_parse_rejects_bad_input(text, hint):
    with pytest.raises(ValueError, match=hint.replace("/", "/")):
        parse_fraction(text)


def test_rich_comparisons_are_a_total_order(oracle):
    farey = oracle(SequenceKind.FULL, 9)
    for i, x in enumerate(farey):
        for j, y in enumerate(farey):
            assert (x < y) == (i < j)
            assert (x <= y) == (i <= j)
            assert (x == y) == (i == j)
            assert (x > y) == (i > j)
            assert (x >= y) == (i >= j)


@pytest.mark.parametrize(
    "x, y, expected",
    [("1/3", "3/5", "1/2"), ("0/1", "1/1", "1/2"), ("1/2", "2/3", "3/5")],
)
def test_mediant_examples(x, y, expected):
    assert mediant(parse_fraction(x), parse_fraction(y)) == parse_fraction(expected)


def test_mediant_lies_strictly_between(oracle):
    farey = oracle(SequenceKind.FULL, 12)
    for i, x in enumerate(farey):
        for y in farey[i + 1 :]:
            mid = mediant(x, y)
            assert x < mid < y


@pytest.mark.parametrize(
    "x, y, expected",
    [("1/3", "1/2", 1), ("1/2", "1/2", 0), ("0/1", "1/3", 1), ("1/2", "1/3", -1)],
)
def test_adjacency_determinant(x, y, expected):
    assert adjacency_determinant(parse_fraction(x), parse_fraction(y)) == expected


def test_apply_map_examples():
    assert MIRROR_MAP.apply(Fraction(1, 3)) == Fraction(2, 3)
    assert IDENTITY_MAP.apply(Fraction(3, 5)) == Fraction(3, 5)
    assert UnimodularMap(1, 0, 1, 1).apply(Fraction(1, 2)) == Fraction(1, 3)


def test_apply_map_normalizes_zero_numerator():
    lower = UnimodularMap(-2, 1, -1, 1)  # h/k -> (k-2h)/(k-h)
    assert lower.apply(Fraction(1, 2)) == Fraction(0, 1)


def test_apply_map_rejects_out_of_domain_images():
    two_h_minus_k = UnimodularMap(2, -1, 1, 0)
    with pytest.raises(DomainError):
        two_h_minus_k.apply(Fraction(1, 3))  # negative numerator
    flip = UnimodularMap(1, 0, 3, -1)
    with pytest.raises(DomainError):
        flip.apply(Fraction(1, 3))  # zero denominator


def test_unimodular_determinant_enforced():
    with pytest.raises(DomainError):
        UnimodularMap(1, 1, 1, 1)
    with pytest.raises(DomainError):
        UnimodularMap(2, 0, 0, 2)


def test_matrix_inverse_and_composition():
    for entry in catalog():
        matrix = entry.matrix
        assert matrix.det in (1, -1)
        assert (matrix @ matrix.inverse()).rows() == ((1, 0), (0, 1))
        assert (matrix.inverse() @ matrix).rows() == ((1, 0), (0, 1))


def test_apply_then_inverse_is_identity(oracle):
    matrices = {entry.matrix for entry in catalog()}
    for x in oracle(SequenceKind.FULL, 8):
        for matrix in matrices:
            try:
                image = matrix.apply(x)
            except DomainError:
                continue
            assert matrix.inverse().apply(image) == x


def test_mirror_helper_is_the_mirror_matrix(oracle):
    for x in oracle(SequenceKind.FULL, 10):
        assert mirror(x) == MIRROR_MAP.apply(x)
        assert mirror(mirror(x)) == x


@pytest.mark.parametrize("h, k", [(0, 1), (1, 1), (1, 2), (3, 7), (999_999_999, 1_000_000_000)])
def test_trusted_construction_is_indistinguishable(h, k):
    trusted, checked = _reduced(h, k), Fraction(h, k)
    assert type(trusted) is Fraction
    assert trusted == checked and hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked) and str(trusted) == str(checked)
    assert not trusted < checked and not trusted > checked
    with pytest.raises(dataclasses.FrozenInstanceError):
        trusted.num = 2
