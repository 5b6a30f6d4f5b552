from itertools import islice

import pytest
from hypothesis import given, settings

from fareysub import (
    IDENTITY_MAP,
    DomainError,
    Fraction,
    SequenceKind,
    SequenceSpec,
    enumerate_sequence,
    generate_boolean,
    generate_sequence,
    get_map,
    halfsequences,
    iterate_f,
    iterate_g,
    member,
    parse_fraction,
    sequence_neighbors,
)
from fareysub.sequences import _g_down, _g_step, _g_up, _g_walk, _pieces, _term_pairs
from strategies import family_members, valid_ms

K = SequenceKind


def listing(text):
    return [parse_fraction(tok) for tok in text.split()]


F6 = listing("0/1 1/6 1/5 1/4 1/3 2/5 1/2 3/5 2/3 3/4 4/5 5/6 1/1")
B64 = listing("0/1 1/3 1/2 3/5 2/3 3/4 4/5 1/1")
G64 = listing("0/1 1/3 1/2 3/5 2/3 3/4 4/5 5/6 1/1")
F64 = listing("0/1 1/6 1/5 1/4 1/3 2/5 1/2 3/5 2/3 3/4 4/5 1/1")
G42 = listing("0/1 1/3 1/2 2/3 3/4 1/1")
F42 = listing("0/1 1/4 1/3 1/2 2/3 1/1")
B62 = listing("0/1 1/5 1/4 1/3 2/5 1/2 2/3 1/1")


@pytest.mark.parametrize(
    "kind, n, m",
    [
        (K.FULL, 0, None),
        (K.FNUM, 6, None),
        (K.FNUM, 6, 0),
        (K.GDIFF, 6, 6),
        (K.BOOLEAN, 6, 0),
        (K.BOOLEAN, 6, 6),
        (K.BOOLEAN, 1, 1),
        (K.BOOLEAN_LEFT, 4, 0),
        (K.BOOLEAN_RIGHT, 4, 4),
    ],
)
def test_spec_validation(kind, n, m):
    with pytest.raises(DomainError):
        SequenceSpec(kind, n, m)


def test_full_spec_ignores_m():
    assert SequenceSpec(K.FULL, 6, 3) == SequenceSpec(K.FULL, 6)
    assert SequenceSpec(K.FULL, 6, 3).m is None


def test_gdiff_spec_accepts_negative_m():
    assert SequenceSpec(K.GDIFF, 4, -2).m == -2
    assert SequenceSpec(K.FNUM, 2, 4).m == 4


@pytest.mark.parametrize(
    "kind, n, m, fraction, expected",
    [
        (K.BOOLEAN, 6, 4, "5/6", False),
        (K.GDIFF, 6, 4, "1/4", False),
        (K.FULL, 6, None, "0/1", True),
        (K.FULL, 6, None, "1/7", False),
        (K.FNUM, 6, 4, "5/6", False),
        (K.FNUM, 6, 4, "4/5", True),
        (K.BOOLEAN_LEFT, 6, 4, "1/2", True),
        (K.BOOLEAN_LEFT, 6, 4, "3/5", False),
        (K.BOOLEAN_RIGHT, 6, 4, "1/2", True),
        (K.BOOLEAN_RIGHT, 6, 4, "1/3", False),
    ],
)
def test_member(kind, n, m, fraction, expected):
    assert member(SequenceSpec(kind, n, m), parse_fraction(fraction)) is expected


def test_enumerate_golden_listings(oracle):
    assert oracle(K.FULL, 6) == F6
    assert oracle(K.BOOLEAN, 6, 4) == B64
    assert oracle(K.GDIFF, 4, 2) == G42


def test_enumerate_respects_size_bound():
    with pytest.raises(DomainError):
        enumerate_sequence(SequenceSpec(K.FULL, 50), max_order=10)
    assert enumerate_sequence(SequenceSpec(K.FULL, 50), max_order=50)[0] == Fraction(0, 1)


def test_halfsequences_examples():
    left, right = halfsequences(6, 4)
    assert left == listing("0/1 1/3 1/2")
    assert right == listing("1/2 3/5 2/3 3/4 4/5 1/1")
    left, right = halfsequences(2, 1)
    assert left == listing("0/1 1/2")
    assert right == listing("1/2 1/1")
    left, right = halfsequences(6, 2)
    assert left == listing("0/1 1/5 1/4 1/3 2/5 1/2")
    assert right == listing("1/2 2/3 1/1")


def test_halfsequences_cover_and_overlap(oracle):
    for n in range(2, 12):
        for m in range(1, n):
            left, right = halfsequences(n, m)
            assert left[-1] == right[0] == Fraction(1, 2)
            assert left + right[1:] == oracle(K.BOOLEAN, n, m)


def test_iterate_g_examples():
    assert list(iterate_g(6, 4)) == G64
    assert list(iterate_g(6, 0)) == F6
    assert list(iterate_g(4, 2)) == G42
    assert list(iterate_g(1, 0)) == listing("0/1 1/1")


def test_iterate_f_examples():
    assert list(iterate_f(6, 4)) == F64
    assert list(iterate_f(4, 2)) == F42
    assert list(iterate_f(6, 5)) == F6


def test_generate_boolean_examples():
    assert generate_boolean(6, 4) == B64
    assert generate_boolean(2, 1) == listing("0/1 1/2 1/1")
    assert generate_boolean(6, 2) == B62


def test_generators_match_oracle(oracle):
    for n in range(1, 21):
        assert list(iterate_g(n, 0)) == oracle(K.FULL, n)
        for m in range(-2, n):
            assert list(iterate_g(n, m)) == oracle(K.GDIFF, n, m)
        for m in range(1, n + 3):
            assert list(iterate_f(n, m)) == oracle(K.FNUM, n, m)
        for m in range(1, n):
            assert generate_boolean(n, m) == oracle(K.BOOLEAN, n, m)
            spec_left = SequenceSpec(K.BOOLEAN_LEFT, n, m)
            spec_right = SequenceSpec(K.BOOLEAN_RIGHT, n, m)
            assert generate_sequence(spec_left) == oracle(K.BOOLEAN_LEFT, n, m)
            assert generate_sequence(spec_right) == oracle(K.BOOLEAN_RIGHT, n, m)


def test_degenerate_parameter_identities(oracle):
    for n in range(2, 16):
        full = oracle(K.FULL, n)
        assert oracle(K.FNUM, n, n - 1) == full
        assert oracle(K.FNUM, n, n + 5) == full
        assert oracle(K.GDIFF, n, 1) == full
        assert oracle(K.GDIFF, n, 0) == full
        assert oracle(K.GDIFF, n, -5) == full


def test_boolean_is_intersection(oracle):
    for n in range(2, 16):
        for m in range(1, n):
            fnum = set(oracle(K.FNUM, n, m))
            gdiff = oracle(K.GDIFF, n, m)
            assert [x for x in gdiff if x in fnum] == oracle(K.BOOLEAN, n, m)


def test_gdiff_second_element_closed_form(oracle):
    for n in range(1, 26):
        for m in range(0, n):
            seq = oracle(K.GDIFF, n, m)
            if len(seq) > 1:
                assert seq[1] == Fraction(1, min(n - m + 1, n))


def test_iteration_parameter_errors():
    with pytest.raises(DomainError):
        list(iterate_g(0, 0))
    with pytest.raises(DomainError):
        list(iterate_g(4, 4))
    with pytest.raises(DomainError):
        list(iterate_f(4, 0))
    with pytest.raises(DomainError):
        generate_boolean(4, 0)
    with pytest.raises(DomainError):
        generate_boolean(1, 1)


def test_boolean_left_right_extraction(oracle):
    for n in range(2, 12):
        for m in range(1, n):
            whole = oracle(K.BOOLEAN, n, m)
            left = oracle(K.BOOLEAN_LEFT, n, m)
            right = oracle(K.BOOLEAN_RIGHT, n, m)
            half = Fraction(1, 2)
            assert left == [x for x in whole if x <= half]
            assert right == [x for x in whole if x >= half]


def _descending(spec):
    """The terms of spec from its top end down: the kernel walked the other way."""
    n, m = spec.n, spec.m
    if spec.kind is K.GDIFF:
        return _g_down(n, m)
    if spec.kind is K.FNUM:
        return ((k - h, k) for h, k in _g_up(n, n - m))
    if spec.kind is K.BOOLEAN_LEFT:
        return ((k - h, 2 * k - h) for h, k in _g_up(n - m, n - 2 * m))
    return ((k, 2 * k - h) for h, k in _g_down(m, 2 * m - n))


def _neighbor_chain(spec, start, steps, direction):
    chain = [start]
    while len(chain) < steps:
        result = sequence_neighbors(spec, chain[-1])
        step = result.successor if direction > 0 else result.predecessor
        if step is None:
            break
        chain.append(step)
    return [(f.num, f.den) for f in chain]


STREAMED = (K.GDIFF, K.FNUM, K.BOOLEAN_LEFT, K.BOOLEAN_RIGHT)


def test_descending_walk_reverses_the_generators():
    for n in range(2, 30):
        for kind in STREAMED:
            for m in range(1, n):
                spec = SequenceSpec(kind, n, m)
                down = [Fraction(h, k) for h, k in _descending(spec)]
                assert down[::-1] == generate_sequence(spec)


@pytest.mark.parametrize("kind", STREAMED)
@pytest.mark.parametrize("m", [1, 2, 333_333_333, 499_999_999, 500_000_000, 500_000_001, 999_999_998, 999_999_999])
def test_both_ends_match_neighbor_chains_at_order_1e9(kind, m):
    n = 10**9
    spec = SequenceSpec(kind, n, m)
    if kind is K.GDIFF:
        head = [(f.num, f.den) for f in islice(iterate_g(n, m), 50)]
    elif kind is K.FNUM:
        head = [(f.num, f.den) for f in islice(iterate_f(n, m), 50)]
    else:
        head = list(islice(_term_pairs(spec), 50))
    tail = list(islice(_descending(spec), 50))
    first = Fraction(1, 2) if kind is K.BOOLEAN_RIGHT else Fraction(0, 1)
    last = Fraction(1, 2) if kind is K.BOOLEAN_LEFT else Fraction(1, 1)
    assert head == _neighbor_chain(spec, first, 50, +1)
    assert tail == _neighbor_chain(spec, last, 50, -1)


@pytest.mark.parametrize("m", [1, 7, 10**9 // 2, 10**9 - 1, 10**9 + 5])
def test_iterate_f_streams_its_first_terms_at_once(m):
    spec = SequenceSpec(K.FNUM, 10**9, m)
    terms = iterate_f(10**9, m)
    assert next(terms) == Fraction(0, 1)
    assert [(f.num, f.den) for f in islice(terms, 3)] == _neighbor_chain(spec, Fraction(0, 1), 4, +1)[1:]


def test_kernel_rejects_a_non_adjacent_pair():
    for seed in ((0, 1, 2, 5), (1, 3, 2, 3)):  # det 2 and det 3
        with pytest.raises(RuntimeError, match="not adjacent"):
            next(_g_walk(6, 0, *seed))
        with pytest.raises(RuntimeError, match="not adjacent"):
            _g_step(6, 0, *seed)


def test_kernel_walk_stops_at_the_endpoints():
    assert list(_g_walk(6, 4, 4, 5, 5, 6)) == [(4, 5), (5, 6), (1, 1)]
    assert list(_g_walk(6, 4, 5, 6, 1, 1)) == [(5, 6), (1, 1)]
    assert list(_g_walk(6, 4, 1, 2, 1, 3)) == [(1, 2), (1, 3), (0, 1)]
    assert list(_g_walk(6, 4, 1, 3, 0, 1)) == [(1, 3), (0, 1)]
    assert _g_step(6, 4, 4, 5, 5, 6) == (1, 1) and _g_step(6, 4, 5, 6, 1, 1) is None
    assert _g_step(6, 4, 1, 2, 1, 3) == (0, 1) and _g_step(6, 4, 1, 3, 0, 1) is None


def _walk_step(n, m, a, b):
    """The term _g_walk yields after a and b, or None if it stops there."""
    return next(islice(_g_walk(n, m, *a, *b), 2, None), None)


def test_step_equals_the_walk_on_every_consecutive_pair():
    # The step is written twice, in _g_step and inside _g_walk; every pair
    # of every small gdiff family, taken both ways, pins them together.
    for n in range(1, 40):
        for m in range(-2, n):
            terms = [(f.num, f.den) for f in generate_sequence(SequenceSpec(K.GDIFF, n, m))]
            for seq in (terms, terms[::-1]):
                for i in range(1, len(seq)):
                    a, b = seq[i - 1], seq[i]
                    step = _g_step(n, m, *a, *b)
                    assert step == _walk_step(n, m, a, b), (n, m, a, b)
                    assert step == (seq[i + 1] if i + 1 < len(seq) else None), (n, m, a, b)


@settings(max_examples=200, deadline=None)
@given(family_members(10**9, kinds=[K.GDIFF]))
def test_step_equals_the_walk_up_to_n_1e9(case):
    spec, x = case
    n, m, b = spec.n, spec.m, (x.num, x.den)
    res = sequence_neighbors(spec, x)
    for a, c in ((res.predecessor, res.successor), (res.successor, res.predecessor)):
        if a is None:
            continue
        step = _g_step(n, m, a.num, a.den, *b)
        assert step == _walk_step(n, m, (a.num, a.den), b)
        assert step == (None if c is None else (c.num, c.den))


def test_pieces_carry_gdiff_families_onto_every_family(oracle):
    for kind in K:
        for n in range(1, 31):
            for m in valid_ms(kind, n):
                spec = SequenceSpec(kind, n, m)
                joined = []
                for piece_n, piece_m, matrix, reverses in _pieces(spec):
                    assert piece_m >= 0
                    image = [matrix.apply(x) for x in oracle(K.GDIFF, piece_n, piece_m)]
                    if reverses:
                        image.reverse()
                    if joined:
                        assert image[0] == joined[-1]
                        image = image[1:]
                    joined += image
                assert joined == oracle(kind, n, m), spec


def test_piece_matrices_are_the_catalog_matrices():
    used = {id(piece[2]) for kind in K for piece in _pieces(SequenceSpec(kind, 7, None if kind is K.FULL else 3))}
    catalog_ids = {id(get_map(i).matrix) for i in ("lemma_g_to_f", "thm_gdual_to_left", "thm_g_to_right")}
    assert used == catalog_ids | {id(IDENTITY_MAP)}
