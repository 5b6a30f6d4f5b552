import math

import pytest
from hypothesis import given, settings

from fareysub import (
    HALF,
    ONE,
    ZERO,
    DomainError,
    Fraction,
    SequenceKind,
    SequenceSpec,
    adjacency_determinant,
    boolean_predecessor,
    boolean_special_neighbors,
    boolean_successor,
    f_predecessor,
    f_successor,
    g_next_from_pair,
    g_predecessor,
    g_prev_from_pair,
    g_successor,
    g_unit_fraction_neighbors,
    member,
    parse_fraction,
    sequence_neighbors,
)
from strategies import family_members

K = SequenceKind
frac = parse_fraction


@pytest.mark.parametrize(
    "n, m, x, expected",
    [
        (6, 4, "1/2", "1/3"),
        (6, 4, "3/5", "1/2"),
        (6, 0, "1/6", "0/1"),
        (6, 4, "1/3", "0/1"),
    ],
)
def test_g_predecessor_examples(n, m, x, expected):
    assert g_predecessor(n, m, frac(x)) == frac(expected)


@pytest.mark.parametrize(
    "n, m, x, expected",
    [
        (6, 4, "1/2", "3/5"),
        (6, 4, "4/5", "5/6"),
        (6, 0, "5/6", "1/1"),
        (6, 4, "5/6", "1/1"),
    ],
)
def test_g_successor_examples(n, m, x, expected):
    assert g_successor(n, m, frac(x)) == frac(expected)


@pytest.mark.parametrize(
    "n, m, k, pred, succ",
    [(6, 4, 3, "0/1", "1/2"), (6, 0, 6, "0/1", "1/5"), (6, 4, 2, "1/3", "3/5")],
)
def test_unit_fraction_examples(n, m, k, pred, succ):
    assert g_unit_fraction_neighbors(n, m, k) == (frac(pred), frac(succ))


def test_unit_fraction_rejects_non_members():
    with pytest.raises(DomainError):
        g_unit_fraction_neighbors(6, 4, 4)  # 1/4 has k - h = 3 > 2
    with pytest.raises(DomainError):
        g_unit_fraction_neighbors(6, 0, 7)
    with pytest.raises(DomainError):
        g_unit_fraction_neighbors(1, 0, 1)


def test_from_pair_examples():
    assert g_next_from_pair(6, 4, frac("1/3"), frac("1/2")) == frac("3/5")
    assert g_prev_from_pair(6, 4, frac("1/2"), frac("3/5")) == frac("1/3")
    assert g_next_from_pair(6, 4, frac("4/5"), frac("5/6")) == frac("1/1")


def test_from_pair_rejects_non_consecutive():
    with pytest.raises(DomainError):
        g_next_from_pair(6, 0, frac("0/1"), frac("1/2"))  # 1/6 lies between
    with pytest.raises(DomainError):
        g_next_from_pair(6, 4, frac("1/3"), frac("3/5"))
    with pytest.raises(DomainError):
        g_prev_from_pair(6, 4, frac("0/1"), frac("1/3"))  # walks before 0/1
    with pytest.raises(DomainError):
        g_next_from_pair(6, 4, frac("5/6"), frac("1/1"))  # walks past 1/1


@pytest.mark.parametrize(
    "n, m, x, pred, succ",
    [
        (6, 4, "4/5", "3/4", "1/1"),
        (6, 4, "1/6", "0/1", "1/5"),
        (4, 2, "1/2", "1/3", "2/3"),
    ],
)
def test_f_neighbors_examples(n, m, x, pred, succ):
    assert f_predecessor(n, m, frac(x)) == frac(pred)
    assert f_successor(n, m, frac(x)) == frac(succ)


def test_endpoints_are_rejected():
    for fn in (g_predecessor, g_successor):
        with pytest.raises(DomainError):
            fn(6, 4, frac("0/1"))
        with pytest.raises(DomainError):
            fn(6, 4, frac("1/1"))
    with pytest.raises(DomainError):
        f_predecessor(6, 4, frac("0/1"))
    with pytest.raises(DomainError):
        boolean_successor(6, 4, frac("1/1"))


def test_non_members_are_rejected():
    with pytest.raises(DomainError):
        g_predecessor(6, 4, frac("1/4"))
    with pytest.raises(DomainError):
        g_successor(6, 4, frac("5/7"))
    with pytest.raises(DomainError):
        f_successor(6, 4, frac("5/6"))
    with pytest.raises(DomainError):
        boolean_predecessor(6, 4, frac("5/6"))


@pytest.mark.parametrize(
    "n, m, anchor, pred, succ",
    [
        (6, 4, "1/2", "1/3", "3/5"),
        (6, 4, "2/3", "3/5", "3/4"),
        (6, 2, "1/3", "1/4", "2/5"),
        (4, 1, "1/3", "1/4", "1/2"),
        (3, 2, "2/3", "1/2", "1/1"),
        (5, 1, "1/2", "1/3", "1/1"),
    ],
)
def test_special_anchor_examples(n, m, anchor, pred, succ):
    assert boolean_special_neighbors(n, m, frac(anchor)) == (frac(pred), frac(succ))


def test_special_anchor_rejections():
    with pytest.raises(DomainError):
        boolean_special_neighbors(4, 2, frac("1/2"))  # n = 2m out of scope
    with pytest.raises(DomainError):
        boolean_special_neighbors(6, 4, frac("2/5"))  # not an anchor
    with pytest.raises(DomainError):
        boolean_special_neighbors(6, 1, frac("2/3"))  # 2/3 needs m > 1
    with pytest.raises(DomainError):
        boolean_special_neighbors(6, 5, frac("1/3"))  # 1/3 absent, k-h = 2 > 1


def test_g_neighbors_match_oracle(oracle):
    for n in range(2, 15):
        for m in range(-1, n):
            seq = oracle(K.GDIFF, n, m)
            for i in range(1, len(seq) - 1):
                x = seq[i]
                assert g_predecessor(n, m, x) == seq[i - 1]
                assert g_successor(n, m, x) == seq[i + 1]
                assert adjacency_determinant(seq[i - 1], x) == 1
                if x.num == 1 and x.den > 1:
                    assert g_unit_fraction_neighbors(n, m, x.den) == (seq[i - 1], seq[i + 1])
                assert g_next_from_pair(n, m, seq[i - 1], x) == seq[i + 1]
                assert g_prev_from_pair(n, m, x, seq[i + 1]) == seq[i - 1]


def test_f_neighbors_match_oracle(oracle):
    for n in range(2, 15):
        for m in range(1, n + 2):
            seq = oracle(K.FNUM, n, m)
            for i in range(1, len(seq) - 1):
                assert f_predecessor(n, m, seq[i]) == seq[i - 1]
                assert f_successor(n, m, seq[i]) == seq[i + 1]


def test_boolean_neighbors_match_oracle(oracle):
    for n in range(2, 15):
        for m in range(1, n):
            seq = oracle(K.BOOLEAN, n, m)
            for i in range(1, len(seq) - 1):
                assert boolean_predecessor(n, m, seq[i]) == seq[i - 1]
                assert boolean_successor(n, m, seq[i]) == seq[i + 1]


def test_special_anchors_match_oracle(oracle):
    anchors = [frac("1/2"), frac("1/3"), frac("2/3")]
    for n in range(2, 15):
        for m in range(1, n):
            if n == 2 * m:
                continue
            spec = SequenceSpec(K.BOOLEAN, n, m)
            seq = oracle(K.BOOLEAN, n, m)
            for anchor in anchors:
                if not member(spec, anchor):
                    continue
                i = seq.index(anchor)
                assert boolean_special_neighbors(n, m, anchor) == (seq[i - 1], seq[i + 1])


def test_predecessor_successor_are_mutually_inverse(oracle):
    for n in range(2, 12):
        for m in range(0, n):
            seq = oracle(K.GDIFF, n, m)
            for i in range(2, len(seq) - 1):
                assert g_successor(n, m, g_predecessor(n, m, seq[i])) == seq[i]
            for i in range(1, len(seq) - 2):
                assert g_predecessor(n, m, g_successor(n, m, seq[i])) == seq[i]


def test_sequence_neighbors_dispatch(oracle):
    for kind in K:
        for n in range(1, 9):
            if kind is K.FULL:
                ms = [None]
            elif kind is K.GDIFF:
                ms = list(range(0, n))
            elif kind is K.FNUM:
                ms = list(range(1, n + 1))
            else:
                ms = list(range(1, n))
            for m in ms:
                spec = SequenceSpec(kind, n, m)
                seq = oracle(kind, n, m)
                for i, x in enumerate(seq):
                    res = sequence_neighbors(spec, x)
                    assert res.target == x
                    assert res.predecessor == (seq[i - 1] if i else None)
                    assert res.successor == (seq[i + 1] if i + 1 < len(seq) else None)


def test_sequence_neighbors_rejects_non_member():
    with pytest.raises(DomainError):
        sequence_neighbors(SequenceSpec(K.GDIFF, 6, 4), frac("5/7"))


def _pair_outcome(step, n, m, a, b):
    """What a *_from_pair call returns, or which DomainError it raises."""
    try:
        return step(n, m, a, b)
    except DomainError as exc:
        return "not consecutive" if "not consecutive" in str(exc) else "no further term"


def test_pair_guard_accepts_exactly_the_consecutive_pairs(oracle):
    # The O(1) certificate guard against the oracle's order, over every
    # ordered pair of members; adjacent pairs at an end pass the guard and
    # then find no further term.
    for n in range(1, 13):
        for m in range(-2, n):
            seq = oracle(K.GDIFF, n, m)
            last = len(seq) - 1
            for i, a in enumerate(seq):
                for j, b in enumerate(seq):
                    if j != i + 1:
                        want_next = want_prev = "not consecutive"
                    else:
                        want_next = seq[j + 1] if j < last else "no further term"
                        want_prev = seq[i - 1] if i > 0 else "no further term"
                    assert _pair_outcome(g_next_from_pair, n, m, a, b) == want_next, (n, m, a, b)
                    assert _pair_outcome(g_prev_from_pair, n, m, a, b) == want_prev, (n, m, a, b)


def _certified(spec, a, b):
    """The adjacency certificate: a < b are consecutive members of spec."""
    return (
        member(spec, a)
        and member(spec, b)
        and adjacency_determinant(a, b) == 1
        and not member(spec, Fraction(a.num + b.num, a.den + b.den))
    )


def _check_neighbors(spec, x):
    res = sequence_neighbors(spec, x)
    first = HALF if spec.kind is K.BOOLEAN_RIGHT else ZERO
    last = HALF if spec.kind is K.BOOLEAN_LEFT else ONE
    assert res.target == x
    assert (res.predecessor is None) == (x == first)
    assert (res.successor is None) == (x == last)
    if res.predecessor is not None:
        assert _certified(spec, res.predecessor, x)
        assert sequence_neighbors(spec, res.predecessor).successor == x
    if res.successor is not None:
        assert _certified(spec, x, res.successor)
        assert sequence_neighbors(spec, res.successor).predecessor == x


@settings(max_examples=400, deadline=None)
@given(family_members(10**9))
def test_sequence_neighbors_are_certified_up_to_n_1e9(case):
    _check_neighbors(*case)


@pytest.mark.parametrize("kind", list(K))
@pytest.mark.parametrize("n", [2, 3, 10**9])
def test_sequence_neighbors_at_the_ends_up_to_n_1e9(kind, n):
    for m in {None} if kind is K.FULL else {1, (n + 1) // 2, n - 1}:
        if kind is K.GDIFF:
            m -= 1
        spec = SequenceSpec(kind, n, m)
        for x in (ZERO, HALF, ONE):
            if member(spec, x):
                _check_neighbors(spec, x)


_ONE_SIDED = {
    K.GDIFF: (g_predecessor, g_successor),
    K.FNUM: (f_predecessor, f_successor),
    K.BOOLEAN: (boolean_predecessor, boolean_successor),
}


@settings(max_examples=300, deadline=None)
@given(family_members(10**9, kinds=list(_ONE_SIDED)))
def test_two_sided_query_equals_the_one_sided_ones_up_to_n_1e9(case):
    # sequence_neighbors solves one side and steps to the other; the
    # one-sided functions solve each side on its own.
    spec, x = case
    res = sequence_neighbors(spec, x)
    before, after = _ONE_SIDED[spec.kind]
    if x.den == 1:
        assert (res.predecessor is None) == (x == ZERO) and (res.successor is None) == (x == ONE)
        return
    assert res.predecessor == before(spec.n, spec.m, x)
    assert res.successor == after(spec.n, spec.m, x)


@settings(max_examples=150, deadline=None)
@given(family_members(10**9, kinds=[K.GDIFF]))
def test_pair_steps_match_chained_neighbor_queries_up_to_n_1e9(case):
    spec, x = case
    n, m = spec.n, spec.m
    start = sequence_neighbors(spec, x)
    walks = ((g_next_from_pair, "successor", ONE), (g_prev_from_pair, "predecessor", ZERO))
    for step, side, end in walks:
        a, b = x, getattr(start, side)
        for _ in range(5):
            if b is None:
                break
            pair = (a, b) if step is g_next_from_pair else (b, a)
            if b == end:
                assert getattr(sequence_neighbors(spec, b), side) is None
                with pytest.raises(DomainError, match="element"):
                    step(n, m, *pair)
                break
            c = step(n, m, *pair)
            assert c == getattr(sequence_neighbors(spec, b), side)
            a, b = b, c


# The gdiff entry points check n and m with sequences._admit and membership
# on ints; none of them builds a SequenceSpec.  The tests below make the
# constructor raise and pin answers and DomainError texts to the spec path.


def _no_spec(self, *args, **kwargs):
    raise AssertionError("a gdiff query built a SequenceSpec")


def _gdiff_answers(n, m, x, pred, succ):
    """Every gdiff entry point and pair step at x against x's neighbors pred and succ."""
    assert g_predecessor(n, m, x) == pred
    assert g_successor(n, m, x) == succ
    assert g_next_from_pair(n, m, pred, x) == succ
    assert g_prev_from_pair(n, m, x, succ) == pred
    if x.num == 1:
        assert g_unit_fraction_neighbors(n, m, x.den) == (pred, succ)


def test_gdiff_queries_build_no_spec_and_match_sequence_neighbors(oracle, monkeypatch):
    cases = []
    for n in range(2, 30):
        for m in range(-2, n):
            spec = SequenceSpec(K.GDIFF, n, m)
            for x in oracle(K.GDIFF, n, m)[1:-1]:
                res = sequence_neighbors(spec, x)
                cases.append((n, m, x, res.predecessor, res.successor))
    monkeypatch.setattr(SequenceSpec, "__init__", _no_spec)
    for case in cases:
        _gdiff_answers(*case)


@settings(max_examples=300, deadline=None)
@given(family_members(10**9, kinds=[K.GDIFF]))
def test_gdiff_queries_build_no_spec_and_match_sequence_neighbors_up_to_n_1e9(case):
    spec, x = case
    n, m = spec.n, spec.m
    if x.den == 1:
        x = HALF if member(spec, HALF) else Fraction(n - 1, n)
    unit = Fraction(1, x.den)
    cases = []
    for y in {x, unit}:
        if member(spec, y):
            res = sequence_neighbors(spec, y)
            cases.append((n, m, y, res.predecessor, res.successor))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SequenceSpec, "__init__", _no_spec)
        for case in cases:
            _gdiff_answers(*case)


def _error(call, *args):
    try:
        call(*args)
    except DomainError as exc:
        return str(exc)
    return None


def test_gdiff_queries_reject_n_and_m_as_the_spec_does():
    # The value-type grid of test_value_types.
    third = Fraction(1, 3)
    for n in range(-1, 13):
        for m in [None, *range(-3, n + 4)]:
            want = _error(SequenceSpec, K.GDIFF, n, m)
            if want is None:
                continue
            assert _error(g_predecessor, n, m, HALF) == want, (n, m)
            assert _error(g_successor, n, m, HALF) == want, (n, m)
            assert _error(g_next_from_pair, n, m, third, HALF) == want, (n, m)
            assert _error(g_prev_from_pair, n, m, third, HALF) == want, (n, m)
            if n > 1:
                assert _error(g_unit_fraction_neighbors, n, m, 2) == want, (n, m)
            else:
                assert _error(g_unit_fraction_neighbors, n, m, 2) == (
                    f"unit-fraction neighbors require n > 1 and k > 1, got n={n}, k=2"
                )


def test_gdiff_queries_reject_non_members_and_ends_with_their_texts():
    for n in range(1, 13):
        for m in range(-2, n):
            spec = SequenceSpec(K.GDIFF, n, m)
            for k in range(1, n + 2):
                for h in range(k + 1):
                    if math.gcd(h, k) != 1:
                        continue
                    x = Fraction(h, k)
                    if k > 1 and member(spec, x):
                        continue
                    want = f"{x} is not in the gdiff family n={n}, m={m}"
                    if k == 1:
                        want = f"{x} is an endpoint and has no two-sided neighbors"
                    assert _error(g_predecessor, n, m, x) == want
                    assert _error(g_successor, n, m, x) == want
                    if h == 1 < k and n > 1:
                        assert _error(g_unit_fraction_neighbors, n, m, k) == want
                    if k > 1:
                        apart = f"{x} and {ONE} are not consecutive in the gdiff family n={n}, m={m}"
                        assert _error(g_next_from_pair, n, m, x, ONE) == apart
            after_zero = sequence_neighbors(spec, ZERO).successor
            before_one = sequence_neighbors(spec, ONE).predecessor
            assert _error(g_prev_from_pair, n, m, ZERO, after_zero) == (
                f"0/1 is the first element; no term before (0/1, {after_zero})"
            )
            assert _error(g_next_from_pair, n, m, before_one, ONE) == (
                f"1/1 is the last element; no next term after ({before_one}, 1/1)"
            )
            if n > 1:
                assert _error(g_next_from_pair, n, m, ZERO, ONE) == (
                    f"0/1 and 1/1 are not consecutive in the gdiff family n={n}, m={m}"
                )
