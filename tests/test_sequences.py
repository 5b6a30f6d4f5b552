import gc
import inspect
from itertools import islice
import math
import textwrap
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fareysub import (
    IDENTITY_MAP,
    MAX_ENUM_ORDER,
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
from fareysub.sequences import _SHARED_INTS_MAX_ORDER, _g_end, _g_step, _g_walk, _pieces, _term_runs
from fareysub import sequences
from fareysub.fraction import _reduced
from fareysub.sequences import _carry, _carried_back, _numerators
from fareysub.verify import _main_sweep, cached_sequence
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
        enumerate_sequence(SequenceSpec(K.FULL, MAX_ENUM_ORDER + 1))
    assert enumerate_sequence(SequenceSpec(K.FULL, 50))[0] == Fraction(0, 1)


@pytest.mark.parametrize("caller_enabled", [True, False])
@pytest.mark.parametrize("fails", [False, True])
@pytest.mark.parametrize(
    "build, inner", [(enumerate_sequence, "_numerators"), (generate_sequence, "_terms")]
)
def test_list_builders_pause_the_collector_and_restore_it(monkeypatch, build, inner, fails, caller_enabled):
    # The collector is off inside the build and back as the caller had it
    # after a return or an error; one that the caller disabled stays off.
    seen = []
    real = getattr(sequences, inner)

    def probe(*args):
        seen.append(gc.isenabled())
        if fails:
            raise RuntimeError("probe")
        return real(*args)

    monkeypatch.setattr(sequences, inner, probe)
    before = gc.isenabled()
    (gc.enable if caller_enabled else gc.disable)()
    try:
        if fails:
            with pytest.raises(RuntimeError, match="probe"):
                build(SequenceSpec(K.FULL, 7))
        else:
            assert len(build(SequenceSpec(K.FULL, 7))) == 19
        assert gc.isenabled() is caller_enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert seen and not any(seen)


def _reference_scan(spec):
    """The oracle's former scan: a gcd per pair, Fraction(h, k), member, a sort by __lt__."""
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


def test_enumerate_matches_the_reference_scan():
    for kind in K:
        for spec in _main_sweep(kind, 40):
            assert enumerate_sequence(spec) == _reference_scan(spec), spec


def test_numerators_are_the_member_pairs_at_each_denominator():
    # member reads the pair alone, so the unreduced pairs are asked too.
    for kind in K:
        for spec in _main_sweep(kind, 40):
            for k in range(1, spec.n + 3):
                want = [h for h in range(k + 1) if member(spec, _reduced(h, k))]
                assert list(_numerators(spec, k)) == want, (spec, k)


@pytest.mark.parametrize("narrow", [(1, 0), (0, -1)])
def test_a_numerator_range_too_narrow_is_refused(monkeypatch, narrow):
    def narrowed(spec, k):
        span = numerators(spec, k)
        return range(span.start + narrow[0], span.stop + narrow[1])

    numerators = sequences._numerators
    monkeypatch.setattr(sequences, "_numerators", narrowed)
    with pytest.raises(RuntimeError, match="just outside"):
        enumerate_sequence(SequenceSpec(K.BOOLEAN, 9, 5))


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


def _pairs(runs):
    """The int pairs (h, k) of a stream of flat runs [h0, k0, h1, k1, ...], lazily."""
    return (pair for run in runs for pair in zip(run[0::2], run[1::2]))


def _g_up(n, m):
    """gdiff(n, m) ascending in int runs, from 0/1 and the term after it."""
    return _g_walk(n, m, 0, 1, *_g_end(n, m, 0))


def _g_down(n, m):
    """gdiff(n, m) descending in int runs, from 1/1 and the term before it."""
    return _g_walk(n, m, 1, 1, *_g_end(n, m, 1))


def _descending(spec):
    """The terms of spec from its top end down: the kernel walked the other way."""
    n, m = spec.n, spec.m
    if spec.kind is K.GDIFF:
        return _pairs(_g_down(n, m))
    if spec.kind is K.FNUM:
        return ((k - h, k) for h, k in _pairs(_g_up(n, n - m)))
    if spec.kind is K.BOOLEAN_LEFT:
        return ((k - h, 2 * k - h) for h, k in _pairs(_g_up(n - m, n - 2 * m)))
    return ((k, 2 * k - h) for h, k in _pairs(_g_down(m, 2 * m - n)))


@pytest.mark.parametrize("size", [1, 2, 3])
def test_generation_is_the_same_at_every_run_size(monkeypatch, size):
    # Runs of one to three terms put a run boundary next to every term: the
    # seed pair, each piece's last term and bool's shared 1/2 among them.
    monkeypatch.setattr(sequences, "_RUN", size)
    for kind in K:
        for spec in _main_sweep(kind, 39):
            want = cached_sequence(spec)
            assert generate_sequence(spec) == want, spec
            if kind is K.GDIFF:
                assert list(iterate_g(spec.n, spec.m)) == want, spec
            elif kind is K.FNUM:
                assert list(iterate_f(spec.n, spec.m)) == want, spec


@pytest.mark.parametrize("size", [1, 2, 3, 1024])
def test_the_walk_yields_the_seed_pair_then_runs_of_the_set_size(monkeypatch, size):
    monkeypatch.setattr(sequences, "_RUN", size)
    for n, m in [(1, 0), (2, 0), (9, 4), (40, 0), (60, 17)]:
        for walk in (_g_up(n, m), _g_down(n, m)):
            lengths = [len(run) // 2 for run in walk]
            assert lengths[0] == 2 and all(length == size for length in lengths[1:-1]), (n, m)
            assert 1 <= lengths[-1] <= size or len(lengths) == 1, (n, m)


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
        head = list(islice(_pairs(_term_runs(spec)), 50))
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


def _traced(make):
    """make(), with the bytes it left allocated and its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        made = make()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return made, kept - base, peak - base


@pytest.mark.parametrize(
    "make",
    [lambda kind=kind: generate_sequence(SequenceSpec(kind, 700, 350)) for kind in K]
    + [lambda: list(iterate_g(700, 600)), lambda: list(iterate_f(700, 100))],
    ids=[kind.value for kind in K] + ["iterate_g", "iterate_f"],
)
def test_the_terms_of_one_call_share_their_ints(make):
    # A term with ints of its own keeps 78-99 bytes; one that shares them
    # keeps its 48-byte Fraction and an 8-byte list slot.  tracemalloc
    # slows generation about 14-fold, so the two iterators are checked on
    # families of 40k terms, not on the 112k of m = 350.
    terms, kept, _ = _traced(make)
    assert kept / len(terms) <= 64
    for field in ("num", "den"):
        values = [getattr(f, field) for f in terms]
        assert len({id(v) for v in values}) == len(set(values)), field


def test_streams_above_the_shared_int_bound_build_no_table():
    for make in (lambda: next(iterate_g(10**9, 5)), lambda: next(iterate_f(10**9, 7))):
        assert _traced(make)[2] < 64 * 1024
    bound = _SHARED_INTS_MAX_ORDER
    assert _traced(lambda: next(iterate_g(bound + 1, 5)))[2] < 64 * 1024
    # At the bound the table of bound + 1 ints is built: about 2.6 MB.
    assert _traced(lambda: next(iterate_g(bound, 5)))[2] < 3 * 2**20


def test_kernel_rejects_a_non_adjacent_pair():
    for seed in ((0, 1, 2, 5), (1, 3, 2, 3)):  # det 2 and det 3
        with pytest.raises(RuntimeError, match="not adjacent"):
            next(_g_walk(6, 0, *seed))
        with pytest.raises(RuntimeError, match="not adjacent"):
            _g_step(6, 0, *seed)


def test_kernel_walk_stops_at_the_endpoints():
    assert list(_pairs(_g_walk(6, 4, 4, 5, 5, 6))) == [(4, 5), (5, 6), (1, 1)]
    assert list(_pairs(_g_walk(6, 4, 5, 6, 1, 1))) == [(5, 6), (1, 1)]
    assert list(_pairs(_g_walk(6, 4, 1, 2, 1, 3))) == [(1, 2), (1, 3), (0, 1)]
    assert list(_pairs(_g_walk(6, 4, 1, 3, 0, 1))) == [(1, 3), (0, 1)]
    assert _g_step(6, 4, 4, 5, 5, 6) == (1, 1) and _g_step(6, 4, 5, 6, 1, 1) is None
    assert _g_step(6, 4, 1, 2, 1, 3) == (0, 1) and _g_step(6, 4, 1, 3, 0, 1) is None


def _with_fault(function, faults):
    """A copy of function compiled from its source with each (old, new) text swapped in."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in faults:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(sequences))
    exec(source, namespace)
    return namespace[function.__name__]


# Faults in q, the only way to reach the step certificate: from any seed
# with det +-1 the two bounds give the next member.
_Q_FAULTS = {
    # c leaves the family; its membership check fires.
    "max of the bounds": ([("if r < q:", "if r > q:")], (6, 4, 0, 1, 1, 3)),
    # c = 2/3 is a member one short of 3/5, and their mediant, 3/5, is one.
    "q one short": (
        [
            ("q = (ak + n) // bk", "q = (ak + n) // bk - 1"),
            ("r = (ak - ah + d) // (bk - bh)", "r = (ak - ah + d) // (bk - bh) - 1"),
        ],
        (6, 4, 1, 3, 1, 2),
    ),
}


@pytest.mark.parametrize("fault", list(_Q_FAULTS))
def test_walk_and_step_certify_each_step(fault):
    faults, (n, m, *seed) = _Q_FAULTS[fault]
    with pytest.raises(RuntimeError, match="gave"):
        list(_with_fault(_g_walk, faults)(n, m, *seed))
    with pytest.raises(RuntimeError, match="gave"):
        _with_fault(_g_step, faults)(n, m, *seed)


def _walk_step(n, m, a, b):
    """The term _g_walk yields after a and b, or None if it stops there.

    Runs of one term, so that the walk takes that one step alone.
    """
    size, sequences._RUN = sequences._RUN, 1
    try:
        return next(islice(_pairs(_g_walk(n, m, *a, *b)), 2, None), None)
    finally:
        sequences._RUN = size


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
                for piece_n, piece_m, matrix in _pieces(spec):
                    assert piece_m >= 0
                    image = [matrix.apply(x) for x in oracle(K.GDIFF, piece_n, piece_m)]
                    if matrix.det < 0:
                        image.reverse()
                    if joined:
                        assert image[0] == joined[-1]
                        image = image[1:]
                    joined += image
                assert joined == oracle(kind, n, m), spec


# Every matrix of the family table, keyed by object identity, over every kind, n <= 20 and m.
_PIECE_MAPS = {
    id(piece[2]): piece[2]
    for kind in K
    for n in range(1, 21)
    for m in valid_ms(kind, n)
    for piece in _pieces(SequenceSpec(kind, n, m))
}


def test_piece_matrices_are_the_catalog_matrices():
    # The table holds the catalog's own objects, so each matrix has one copy.
    catalog_ids = {id(get_map(i).matrix) for i in ("lemma_g_to_f", "thm_gdual_to_left", "thm_g_to_right")}
    assert set(_PIECE_MAPS) == catalog_ids | {id(IDENTITY_MAP)}


def _carried(matrix, h, k):
    """The pair h/k carried by matrix, as the run carry carries it."""
    run = [h, k]
    _carry(matrix, run)
    return tuple(run)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**9), 10**9), st.integers(-(10**9), 10**9))
def test_carried_back_inverts_carried_for_every_piece_map(h, k):
    assert len(_PIECE_MAPS) == 4
    for matrix in _PIECE_MAPS.values():
        image = _carried(matrix, h, k)
        assert _carried_back(matrix, *image) == (h, k), matrix
        back = _carried(matrix, *_carried_back(matrix, h, k))
        assert back == (h, k), matrix
        inverse = matrix.inverse()
        assert _carried_back(matrix, h, k) == _carried(inverse, h, k), matrix


def test_the_run_carry_maps_every_term_of_a_run():
    # Each term of a run is carried on its own, whatever its place in the run.
    pairs = [(0, 1), (1, 7), (2, 9), (3, 5), (1, 1)]
    for matrix in _PIECE_MAPS.values():
        run = [i for pair in pairs for i in pair]
        _carry(matrix, run)
        assert list(_pairs([run])) == [_carried(matrix, h, k) for h, k in pairs], matrix
