from itertools import accumulate, compress, groupby
import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fareysub import (
    HALF,
    ONE,
    DomainError,
    Fraction,
    SequenceKind,
    SequenceSpec,
    UnimodularMap,
    boolean_cardinality,
    boolean_cardinality_variants,
    central_identity_check,
    f_cardinality,
    f_cardinality_variants,
    full_cardinality,
    g_cardinality,
    g_cardinality_variants,
    g_rank,
    g_rank_variants,
    generate_sequence,
    moebius,
    moebius_floor_square_sum,
    moebius_floor_sum,
    parse_fraction,
    phi_interval,
    rank,
    sequence_neighbors,
)
from fareysub import counting
from strategies import families, family_members, valid_ms

K = SequenceKind


@pytest.mark.parametrize(
    "d, expected",
    [(1, 1), (2, -1), (3, -1), (4, 0), (6, 1), (12, 0), (30, -1), (210, 1), (49, 0)],
)
def test_moebius_values(d, expected):
    assert moebius(d) == expected


def test_moebius_rejects_nonpositive():
    with pytest.raises(DomainError):
        moebius(0)
    with pytest.raises(DomainError):
        moebius(-3)


def test_moebius_table_matches_single_values():
    table = counting._mu_upto(10**4)
    assert len(table) == 10**4 + 1 and table[0] == 0
    assert list(table[1:]) == [moebius(d) for d in range(1, 10**4 + 1)]
    table = counting._mu_upto(10**6)
    assert len(table) == 10**6 + 1
    for d in random.Random(21).sample(range(1, 10**6 + 1), 500):
        assert table[d] == moebius(d), d


_FLIP = bytes.maketrans(b"\x01\xff", b"\xff\x01")


def _reference_sieve(limit):
    """The translate sieve with one Python step per prime: the reference for _mu_upto."""
    size = limit + 1
    mu = bytearray(b"\x01") * size
    mu[0] = 0
    prime = bytearray(b"\x01") * size
    root = math.isqrt(limit)
    for p in range(2, root + 1):
        if prime[p]:
            square = p * p
            prime[square::p] = bytes((limit - square) // p + 1)
            mu[p::p] = mu[p::p].translate(_FLIP)
            mu[square::square] = bytes(limit // square)
    for p in compress(range(root + 1, size), prime[root + 1 :]):
        mu[p::p] = mu[p::p].translate(_FLIP)
    return memoryview(mu).cast("b").toreadonly()


def test_moebius_sieve_matches_the_reference_sieve():
    # Orders up to 600 cross both cuts, sqrt(n) and n // 8, and every last
    # stride j.  At 600064 the primes past the cut span nine chunks, and
    # the second and the fourth end just before a prime.
    sieve = counting._mu_upto.__wrapped__
    for limit in [*range(1, 601), 600_064]:
        assert sieve(limit) == _reference_sieve(limit), limit


@pytest.mark.parametrize("limit", [10**6, 2 * 10**6])
def test_moebius_sieve_peaks_near_three_bytes_an_entry(limit):
    tracemalloc.start()
    try:
        counting._mu_upto.__wrapped__(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * limit, peak / limit


@pytest.mark.parametrize(
    "count, value",
    [
        (counting.cardinality, 1459036941),
        (lambda spec: counting.cardinality_variants(spec)[1]["moebius-product"], 1459036941),
        # 12345/20003 lies past 1/2, in the smaller piece.
        (lambda spec: counting.rank(spec, Fraction(12345, 20003)), 1157341046),
    ],
    ids=["card", "moebius-product", "second-half-rank"],
)
def test_a_bool_count_sieves_one_table(count, value):
    # The pieces have orders 60000 and 40000; the smaller reads a prefix.
    counting._mu_upto.cache_clear()
    assert count(SequenceSpec(K.BOOLEAN, 10**5, 40_000)) == value
    assert counting._mu_upto.cache_info().misses == 1


def _runs(n, r, stop):
    """(weight, n // d, r // d) per maximal run of equal quotients in [1, stop], d by d."""
    mu = counting._mu_upto(n)
    runs = groupby(range(1, stop + 1), key=lambda d: (n // d, r // d))
    weighted = ((sum(mu[d] for d in run), N, R) for (N, R), run in runs)
    return [block for block in weighted if block[0]]


def test_blocks_tile_the_range_with_constant_quotients():
    for n in [*range(1, 130), 997, 1000, 1024, 4096]:
        for r in sorted({0, 1, n // 3, n // 2, n - 1, n}):
            for stop in sorted({n, n // 2, n // 7} - {0}):
                blocks = counting._blocks(counting._mu_upto(n), n, r, stop)
                assert list(blocks) == _runs(n, r, stop), (n, r, stop)


def _coprime_sum_per_d(n, r, h, k):
    """The coprime-count sum with one term per d: the reference for the blocked sum."""
    if h == 0:
        return 0
    stop = n // -(-k // h)
    terms = (moebius(d) * counting._below(n // d, r // d, h, k) for d in range(1, stop + 1))
    return sum(terms)


def _at_most(top):
    """Pairs (a, b) with 0 <= b <= a <= top."""
    return st.integers(0, top).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, a)))


# Any h/k with h <= k, a member of gdiff(n, n - r) or not.
@settings(max_examples=100, deadline=None)
@given(_at_most(3000), _at_most(10**6).filter(lambda kh: kh[0] > 0))
@example((3000, 3000), (1, 1))
@example((3000, 0), (2, 3))
@example((2999, 1500), (10**6, 999_999))
def test_blocked_coprime_sum_matches_the_per_d_sum(nr, kh):
    (n, r), (k, h) = nr, kh
    blocked = counting._coprime_sum(counting._mu_upto(n), n, r, h, k)
    assert blocked == _coprime_sum_per_d(n, r, h, k), (n, r, h, k)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 400))
@example(1)
@example(400)
def test_blocked_f_cardinality_matches_the_per_d_formula(q):
    mu = [0] + [moebius(d) for d in range(1, q + 1)]
    for p in range(1, q + 3):
        b = min(p, q)
        twice = 2 + sum(mu[d] * (2 * (q // d) - b // d) * (b // d + 1) for d in range(1, q + 1))
        assert f_cardinality(q, p) * 2 == twice, (q, p)
        # The per-d form, for fnum and for gdiff(q, q - p), its mirror image.
        assert f_cardinality_variants(q, p)["moebius-sum-alt"] * 2 == twice, (q, p)
        assert g_cardinality_variants(q, q - p)["moebius-sum"] * 2 == twice, (q, p)


def test_moebius_sieve_cache_is_bounded():
    sieve = counting._mu_upto
    maxsize = sieve.cache_info().maxsize
    assert maxsize is not None and maxsize <= 4
    sieve.cache_clear()
    for limit in range(1, maxsize + 10):
        sieve(limit)
    assert sieve.cache_info().currsize == maxsize


def test_moebius_is_multiplicative_on_coprime_arguments():
    for a in range(1, 40):
        for b in range(1, 40):
            if math.gcd(a, b) == 1:
                assert moebius(a * b) == moebius(a) * moebius(b)


@pytest.mark.parametrize(
    "h, i, l, expected",
    [
        (2, 1, 1, 1),
        (4, 2, 2, 0),
        (1, 3, 7, 5),
        (6, 1, 6, 2),
        (3, -5, 4, 3),
        (5, 7, 3, 0),
    ],
)
def test_phi_interval(h, i, l, expected):
    assert phi_interval(h, i, l) == expected


def test_phi_interval_brute_force():
    for h in range(1, 25):
        for i in range(-3, 12):
            for l in range(-3, 25):
                want = sum(1 for j in range(max(i, 1), l + 1) if math.gcd(h, j) == 1)
                assert phi_interval(h, i, l) == want


@pytest.mark.parametrize("n, m, expected", [(6, 4, 9), (6, 0, 13), (4, 2, 6)])
def test_g_cardinality_examples(n, m, expected):
    assert g_cardinality(n, m) == expected


def test_g_cardinality_variants_agree_and_match_oracle(oracle):
    for n in range(1, 21):
        for m in range(-2, n):
            want = len(oracle(K.GDIFF, n, m))
            variants = g_cardinality_variants(n, m)
            assert set(variants) == {"phi-sum", "moebius-sum"}
            assert all(v == want for v in variants.values())


def test_g_cardinality_rejects_bad_parameters():
    with pytest.raises(DomainError):
        g_cardinality(6, 6)
    with pytest.raises(DomainError):
        g_cardinality(0, 0)


@pytest.mark.parametrize(
    "n, m, x, expected",
    [(6, 4, "1/2", 2), (6, 4, "1/1", 8), (6, 0, "1/6", 1), (6, 4, "5/6", 7)],
)
def test_g_rank_examples(n, m, x, expected):
    assert g_rank(n, m, parse_fraction(x)) == expected


def test_g_rank_matches_oracle(oracle):
    for n in range(2, 16):
        for m in range(0, n):
            seq = oracle(K.GDIFF, n, m)
            for i, x in enumerate(seq):
                variants = g_rank_variants(n, m, x)
                assert variants["phi-sum"] == i


def _moebius_rank_by_loop(n, m, x):
    """The moebius-sum with its inner sum taken one j at a time, as first written."""
    m = max(m, 0)
    h, k = x.num, x.den
    twice = 2
    for d in range(1, n + 1):
        if moebius(d) == 0:
            continue
        nd, rd = n // d, (n - m) // d
        inner = 0  # sum of min(rd, j(k-h)/k) over j <= nd; the floor never falls
        for j in range(1, nd + 1):
            term = (j * (k - h)) // k
            if term >= rd:
                inner += rd * (nd + 1 - j)
                break
            inner += term
        twice += moebius(d) * (rd * (2 * nd - rd - 1) - 2 * inner)
    return twice // 2


def test_g_rank_moebius_variant_is_reported_not_trusted(oracle):
    # verify reports this variant rather than trusting it; here it must match
    # the oracle index and the per-j loop on every member, 0/1 and 1/1 included.
    for n in range(1, 25):
        for m in range(-2, n):
            for i, x in enumerate(oracle(K.GDIFF, n, m)):
                got = g_rank_variants(n, m, x)["moebius-sum"]
                assert got == i == _moebius_rank_by_loop(n, m, x), (n, m, x)


def test_g_rank_rejects_zero_and_non_members():
    assert g_rank(6, 4, Fraction(0, 1)) == 0
    with pytest.raises(DomainError):
        g_rank(6, 4, parse_fraction("1/4"))


@pytest.mark.parametrize("q, p, expected", [(4, 2, 6), (2, 2, 3), (6, 4, 12), (2, 4, 3)])
def test_f_cardinality_examples(q, p, expected):
    assert f_cardinality(q, p) == expected


def test_f_cardinality_matches_oracle(oracle):
    for q in range(1, 21):
        for p in range(1, q + 3):
            want = len(oracle(K.FNUM, q, p))
            variants = f_cardinality_variants(q, p)
            assert set(variants) == {"moebius-sum", "moebius-sum-alt"}
            assert all(v == want for v in variants.values())


def test_f_cardinality_rejects_bad_parameters():
    with pytest.raises(DomainError):
        f_cardinality(4, 0)
    with pytest.raises(DomainError):
        f_cardinality(0, 1)


@pytest.mark.parametrize("n, m, expected", [(6, 4, 8), (2, 1, 3), (6, 2, 8)])
def test_boolean_cardinality_examples(n, m, expected):
    assert boolean_cardinality(n, m) == expected


def test_boolean_cardinality_matches_oracle(oracle):
    for n in range(2, 21):
        for m in range(1, n):
            want = len(oracle(K.BOOLEAN, n, m))
            variants = boolean_cardinality_variants(n, m)
            assert set(variants) == {"half-sum", "moebius-product"}
            assert all(v == want for v in variants.values())


def test_boolean_cardinality_mirror_symmetry():
    for n in range(2, 30):
        for m in range(1, n):
            assert boolean_cardinality(n, m) == boolean_cardinality(n, n - m)


def test_boolean_cardinality_rejects_bad_parameters():
    with pytest.raises(DomainError):
        boolean_cardinality(6, 0)
    with pytest.raises(DomainError):
        boolean_cardinality(6, 6)


def test_central_identity_small_values():
    assert moebius_floor_square_sum(1) == 1
    assert moebius_floor_square_sum(2) == 3
    assert moebius_floor_square_sum(3) == 7
    assert boolean_cardinality(4, 2) == 5
    assert full_cardinality(2) == 3
    assert full_cardinality(3) == 5
    for t in (1, 2, 3):
        assert central_identity_check(t)


def test_identities_sweep():
    for t in range(1, 121):
        assert moebius_floor_sum(t) == 1
        assert central_identity_check(t)


def test_full_cardinality_matches_oracle(oracle):
    for n in range(1, 26):
        assert full_cardinality(n) == len(oracle(K.FULL, n))


def _no_map(self):
    raise AssertionError("a UnimodularMap was built")


def test_rank_matches_oracle_for_every_kind(oracle, monkeypatch):
    # rank carries x back on ints: it builds no inverse matrix and no Fraction through one.
    monkeypatch.setattr(UnimodularMap, "__post_init__", _no_map)
    for kind in K:
        for n in range(1, 31):
            for m in valid_ms(kind, n):
                spec = SequenceSpec(kind, n, m)
                for i, x in enumerate(oracle(kind, n, m)):
                    assert rank(spec, x) == i, (spec, x)


def _cardinality(spec: SequenceSpec) -> int:
    n, m = spec.n, spec.m
    return {
        K.FULL: lambda: full_cardinality(n),
        K.FNUM: lambda: f_cardinality(n, m),
        K.GDIFF: lambda: g_cardinality(n, m),
        K.BOOLEAN: lambda: boolean_cardinality(n, m),
        K.BOOLEAN_LEFT: lambda: f_cardinality(n - m, m),
        K.BOOLEAN_RIGHT: lambda: f_cardinality(m, n - m),
    }[spec.kind]()


@pytest.mark.parametrize("kind", list(K))
@pytest.mark.parametrize("n", [2, 7, 60, 499, 1000])
def test_rank_of_last_element_is_cardinality_minus_one(kind, n):
    slack = {K.FNUM: {n + 2}, K.GDIFF: {-2, 0}}.get(kind, set())
    ms = [None] if kind is K.FULL else sorted({1, max(1, n // 3), n - 1} | slack)
    for m in ms:
        spec = SequenceSpec(kind, n, m)
        last = HALF if kind is K.BOOLEAN_LEFT else ONE
        assert rank(spec, last) == _cardinality(spec) - 1, spec


def test_rank_rejects_non_members():
    with pytest.raises(DomainError):
        rank(SequenceSpec(K.FULL, 6), parse_fraction("1/7"))
    with pytest.raises(DomainError):
        rank(SequenceSpec(K.BOOLEAN_RIGHT, 6, 4), parse_fraction("1/3"))
    with pytest.raises(DomainError):
        rank(SequenceSpec(K.BOOLEAN_LEFT, 6, 4), parse_fraction("3/5"))


@settings(max_examples=100, deadline=None)
@given(family_members(3000))
def test_rank_of_successor_is_one_more(case):
    spec, x = case
    succ = sequence_neighbors(spec, x).successor
    assume(succ is not None)
    assert rank(spec, succ) == rank(spec, x) + 1


def test_floor_sum_matches_the_literal_sum():
    for c in range(0, 9):
        for m in range(1, 9):
            for a in range(0, 13):
                for b in range(0, 13):
                    want = sum((a * i + b) // m for i in range(c))
                    assert counting._floor_sum(c, m, a, b) == want, (c, m, a, b)


def test_g_rank_matches_a_per_j_gcd_count():
    # The coprime count with a gcd per pair and no Moebius function:
    # coprime[j - 1][t] counts the i in [1, t] coprime to j, and each j adds
    # those in [max(1, j - r), jh/k] to the rank of every member h/k.
    for n in range(1, 41):
        coprime = [
            list(accumulate((math.gcd(i, j) == 1 for i in range(1, j + 1)), initial=0))
            for j in range(1, n + 1)
        ]
        for m in range(-2, n):
            r = n - max(m, 0)
            seq = generate_sequence(SequenceSpec(K.GDIFF, n, m))
            want = [0] * len(seq)
            for j, count in enumerate(coprime, 1):
                low = count[max(1, j - r) - 1]
                want = [w + max(0, count[j * x.num // x.den] - low) for w, x in zip(want, seq)]
            assert [g_rank(n, m, x) for x in seq] == want, (n, m)


@settings(max_examples=40, deadline=None)
@given(families(10**5))
@example(SequenceSpec(K.BOOLEAN, 10**5, 40_000))
@example(SequenceSpec(K.GDIFF, 10**5, -2))
def test_rank_of_last_is_cardinality_minus_one_up_to_1e5(spec):
    last = HALF if spec.kind is K.BOOLEAN_LEFT else ONE
    assert rank(spec, last) == _cardinality(spec) - 1, spec


@settings(max_examples=100, deadline=None)
@given(family_members(3000, kinds=[K.GDIFF]))
def test_rank_variants_agree_beyond_the_oracle(case):
    spec, x = case
    assume(x.num > 0)
    variants = g_rank_variants(spec.n, spec.m, x)
    assert set(variants.values()) == {g_rank(spec.n, spec.m, x), rank(spec, x)}, (spec, x)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cardinality_variants_agree_beyond_the_oracle(data):
    kind = data.draw(st.sampled_from([K.GDIFF, K.FNUM, K.BOOLEAN]))
    n = data.draw(st.integers(2 if kind is K.BOOLEAN else 1, 5000))
    m = data.draw(st.sampled_from(valid_ms(kind, n)))
    scalar, variants = {
        K.GDIFF: (g_cardinality, g_cardinality_variants),
        K.FNUM: (f_cardinality, f_cardinality_variants),
        K.BOOLEAN: (boolean_cardinality, boolean_cardinality_variants),
    }[kind]
    size = scalar(n, m)
    assert full_cardinality(n) >= size
    assert set(variants(n, m).values()) == {size}, (kind, n, m)
