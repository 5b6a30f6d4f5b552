import dataclasses

import pytest

from fareysub import (
    IDENTITY_MAP,
    Direction,
    DomainError,
    MapClass,
    MIRROR_MAP,
    SequenceKind,
    SequenceSpec,
    UnimodularMap,
    apply_named,
    catalog,
    composite_left_identity,
    composite_right_identity,
    enumerate_sequence,
    get_map,
    parse_fraction,
    verify_map,
)
from fareysub import maps, verify
from fareysub.maps import valid_parameter_pairs

K = SequenceKind
frac = parse_fraction

ALL_IDS = [
    "mirror_full",
    "mirror_boolean",
    "lemma_f_to_g",
    "lemma_g_to_f",
    "thm_left_to_f",
    "thm_f_to_left",
    "thm_right_to_g",
    "thm_g_to_right",
    "thm_left_to_gdual",
    "thm_gdual_to_left",
    "thm_right_to_f",
    "thm_f_to_right",
    "prop_left_involution",
    "prop_left_to_right_pres",
    "prop_left_to_right_rev",
    "prop_right_involution",
    "prop_right_to_left_pres",
    "prop_right_to_left_rev",
]


# The table demos/bijection_atlas.py prints, recorded while all eighteen
# entries were still written out by hand: id, matrix rows, direction, class,
# constraint text, inverse id.  It is the one independent statement of the
# matrices the catalog now derives.
_ATLAS = [
    ("mirror_full", ((-1, 1), (0, 1)), "reversing", "bijective", "", "mirror_full"),
    ("mirror_boolean", ((-1, 1), (0, 1)), "reversing", "bijective", "", "mirror_boolean"),
    ("lemma_f_to_g", ((-1, 1), (0, 1)), "reversing", "bijective", "", "lemma_g_to_f"),
    ("lemma_g_to_f", ((-1, 1), (0, 1)), "reversing", "bijective", "", "lemma_f_to_g"),
    ("thm_left_to_f", ((1, 0), (-1, 1)), "preserving", "bijective", "", "thm_f_to_left"),
    ("thm_f_to_left", ((1, 0), (1, 1)), "preserving", "bijective", "", "thm_left_to_f"),
    ("thm_right_to_g", ((2, -1), (1, 0)), "preserving", "bijective", "", "thm_g_to_right"),
    ("thm_g_to_right", ((0, 1), (-1, 2)), "preserving", "bijective", "", "thm_right_to_g"),
    ("thm_left_to_gdual", ((-2, 1), (-1, 1)), "reversing", "bijective", "", "thm_gdual_to_left"),
    ("thm_gdual_to_left", ((-1, 1), (-1, 2)), "reversing", "bijective", "", "thm_left_to_gdual"),
    ("thm_right_to_f", ((-1, 1), (1, 0)), "reversing", "bijective", "", "thm_f_to_right"),
    ("thm_f_to_right", ((0, 1), (1, 1)), "reversing", "bijective", "", "thm_right_to_f"),
    ("prop_left_involution", ((-2, 1), (-3, 2)), "reversing", "bijective", "2m >= n", "prop_left_involution"),
    ("prop_left_to_right_pres", ((-1, 1), (-3, 2)), "preserving", "injective", "2m >= n", None),
    ("prop_left_to_right_rev", ((-1, 1), (0, 1)), "reversing", "injective", "2m >= n", None),
    ("prop_right_involution", ((1, 0), (3, -1)), "reversing", "bijective", "2m <= n", "prop_right_involution"),
    ("prop_right_to_left_pres", ((2, -1), (3, -1)), "preserving", "injective", "2m <= n", None),
    ("prop_right_to_left_rev", ((-1, 1), (0, 1)), "reversing", "injective", "2m <= n", None),
]


def test_catalog_contents():
    entries = catalog()
    assert len(entries) == 18
    assert [entry.id for entry in entries] == ALL_IDS
    assert get_map("thm_f_to_left").matrix.rows() == ((1, 0), (1, 1))
    assert get_map("prop_left_involution").matrix.rows() == ((-2, 1), (-3, 2))
    assert get_map("thm_left_to_f").matrix.rows() == ((1, 0), (-1, 1))
    assert get_map("thm_right_to_g").matrix.rows() == ((2, -1), (1, 0))
    assert [
        (e.id, e.matrix.rows(), e.direction.value, e.map_class.value, e.constraint_text, e.inverse_id)
        for e in entries
    ] == _ATLAS


def test_catalog_directions_and_classes():
    preserving_bijections = {"thm_left_to_f", "thm_f_to_left", "thm_right_to_g", "thm_g_to_right"}
    injections = {
        "prop_left_to_right_pres",
        "prop_left_to_right_rev",
        "prop_right_to_left_pres",
        "prop_right_to_left_rev",
    }
    for entry in catalog():
        assert entry.matrix.det in (1, -1)
        if entry.id in preserving_bijections:
            assert entry.direction is Direction.PRESERVING
        if entry.id in injections:
            assert entry.map_class is MapClass.INJECTIVE
            assert entry.inverse_id is None
        else:
            assert entry.map_class is MapClass.BIJECTIVE
    assert get_map("mirror_boolean").direction is Direction.REVERSING
    assert get_map("lemma_f_to_g").direction is Direction.REVERSING


def test_bijections_register_their_matrix_inverse():
    for entry in catalog():
        if entry.inverse_id is None:
            continue
        assert get_map(entry.inverse_id).matrix == entry.matrix.inverse()


def test_involution_matrices_are_self_inverse():
    for map_id in ("mirror_full", "mirror_boolean", "prop_left_involution", "prop_right_involution"):
        matrix = get_map(map_id).matrix
        assert matrix.inverse() == matrix


def test_composite_matrix_identities():
    eq4 = get_map("thm_left_to_f").matrix
    eq5 = get_map("thm_f_to_left").matrix
    assert (eq5 @ MIRROR_MAP @ eq4) == get_map("prop_left_involution").matrix
    eq12 = get_map("thm_right_to_g").matrix
    eq13 = get_map("thm_g_to_right").matrix
    assert (eq13 @ MIRROR_MAP @ eq12) == get_map("prop_right_involution").matrix


@pytest.mark.parametrize(
    "map_id, n, m, x, expected",
    [
        ("thm_right_to_g", 6, 4, "3/5", "1/3"),
        ("mirror_full", 6, 0, "1/2", "1/2"),
        ("prop_right_involution", 6, 2, "2/3", "2/3"),
        ("thm_f_to_left", 6, 4, "1/2", "1/3"),
        ("mirror_boolean", 6, 4, "1/3", "2/3"),
        ("lemma_f_to_g", 6, 4, "1/6", "5/6"),
        ("thm_left_to_gdual", 6, 4, "1/3", "1/2"),
    ],
)
def test_apply_named_examples(map_id, n, m, x, expected):
    assert apply_named(map_id, n, m, frac(x)) == frac(expected)


def test_apply_named_rejections():
    with pytest.raises(DomainError):
        apply_named("prop_left_involution", 6, 2, frac("1/3"))  # needs 2m >= n
    with pytest.raises(DomainError):
        apply_named("prop_right_involution", 6, 4, frac("2/3"))  # needs 2m <= n
    with pytest.raises(DomainError):
        apply_named("no_such_map", 6, 4, frac("1/2"))
    with pytest.raises(DomainError):
        apply_named("thm_right_to_g", 6, 4, frac("1/3"))  # 1/3 is in the left half
    with pytest.raises(DomainError):
        apply_named("lemma_f_to_g", 6, 0, frac("1/2"))  # fnum needs m >= 1


@pytest.mark.parametrize(
    "map_id, wrong, x",
    [
        # h/(2h+k): a bijection onto less than its codomain
        ("thm_f_to_left", UnimodularMap(1, 0, 2, 1), "1/2"),
        # an injection that stays in the left half
        ("prop_left_to_right_pres", IDENTITY_MAP, "1/3"),
        # h/(k-h): carries the domain's 1/1 to 1/0, out of [0/1, 1/1]
        ("thm_f_to_left", UnimodularMap(1, 0, -1, 1), "1/2"),
    ],
)
def test_a_wrong_registry_matrix_is_reported_by_verify(monkeypatch, map_id, wrong, x):
    # apply_named checks only the domain; the codomain claim is verify's to check.
    entry = get_map(map_id)
    broken = dataclasses.replace(entry, matrix=wrong)
    monkeypatch.setattr(maps, "_CATALOG", tuple(broken if e is entry else e for e in catalog()))
    monkeypatch.setitem(maps._BY_ID, map_id, broken)
    x = frac(x)
    assert apply_named(map_id, 6, 4, x) == wrong.apply(x) != entry.matrix.apply(x)

    report = verify_map(map_id, 6, 4)
    assert not report.passed and not report.image_ok and report.counterexample
    rows = {row.name: row for row in verify.map_suite(8)}
    row = rows[f"maps/{map_id}"]
    assert row.failures > 0 and row.first_failure
    assert rows["maps/mirror_full"].ok


def test_a_wrong_inverse_matrix_alone_fails_the_roundtrip(monkeypatch):
    # thm_f_to_left broken to h/(2h+k): thm_left_to_f's images are still
    # right, but the registered inverse no longer undoes them.
    entry = get_map("thm_f_to_left")
    broken = dataclasses.replace(entry, matrix=UnimodularMap(1, 0, 2, 1))
    monkeypatch.setattr(maps, "_CATALOG", tuple(broken if e is entry else e for e in catalog()))
    monkeypatch.setitem(maps._BY_ID, "thm_f_to_left", broken)
    report = verify_map("thm_left_to_f", 6, 4)
    assert report.image_ok and report.monotone
    assert not report.roundtrip_ok and not report.passed and report.counterexample
    rows = {row.name: row for row in verify.map_suite(8)}
    assert not rows["maps/thm_left_to_f"].ok
    assert rows["maps/mirror_full"].ok


def test_a_matrix_of_the_wrong_orientation_fails(monkeypatch):
    # thm_left_to_f's matrix composed with the mirror: the determinant, and so
    # the direction, flips, and the registered inverse no longer undoes it.
    entry = get_map("thm_left_to_f")
    broken = dataclasses.replace(entry, matrix=MIRROR_MAP @ entry.matrix)
    monkeypatch.setattr(maps, "_CATALOG", tuple(broken if e is entry else e for e in catalog()))
    monkeypatch.setitem(maps._BY_ID, "thm_left_to_f", broken)
    assert get_map("thm_left_to_f").direction is Direction.REVERSING
    report = verify_map("thm_left_to_f", 6, 4)
    assert not report.roundtrip_ok and not report.passed
    assert report.counterexample == "thm_f_to_left after thm_left_to_f is ((-2, 1), (-3, 2)), not +-I"
    assert not verify_map("thm_left_to_f", 7, 2).image_ok
    rows = {row.name: row for row in verify.map_suite(8)}
    assert not rows["maps/thm_left_to_f"].ok


def _break(monkeypatch, map_id, matrix):
    entry = get_map(map_id)
    broken = dataclasses.replace(entry, matrix=matrix)
    monkeypatch.setattr(maps, "_CATALOG", tuple(broken if e is entry else e for e in catalog()))
    monkeypatch.setitem(maps._BY_ID, map_id, broken)


def test_the_counterexample_is_the_first_failure_in_check_order(monkeypatch):
    # h/k -> (h+k)/k carries 1/3 out of [0/1, 1/1], leaves the images of
    # left(6, 4) short of the codomain and is not undone by thm_f_to_left:
    # three claims fail, and the range text, checked first, is reported.
    _break(monkeypatch, "thm_left_to_f", UnimodularMap(1, 1, 0, 1))
    report = verify_map("thm_left_to_f", 6, 4)
    assert (report.monotone, report.image_ok, report.roundtrip_ok) == (True, False, False)
    assert report.counterexample == (
        "image 4/3 of 1/3 under ((1, 1), (0, 1)) leaves [0/1, 1/1]; "
        "the fraction is not in this map's domain"
    )


def test_a_composite_step_off_the_unit_interval_fails_the_identity(monkeypatch):
    # h/k -> -h/k keeps 0/1, where the identity holds, and carries every
    # later member out of [0/1, 1/1]: the identity fails and nothing raises.
    _break(monkeypatch, "thm_left_to_f", UnimodularMap(-1, 0, 0, 1))
    assert composite_left_identity(6, 4) is False


def test_an_inverse_naming_other_families_fails_the_roundtrip(monkeypatch):
    # thm_f_to_left's matrix still undoes thm_left_to_f, but its domain at
    # the transformed parameters is no longer the image family.
    entry = get_map("thm_f_to_left")
    broken = dataclasses.replace(entry, domain=lambda n, m: SequenceSpec(K.FNUM, n - m, m + 1))
    monkeypatch.setattr(maps, "_CATALOG", tuple(broken if e is entry else e for e in catalog()))
    monkeypatch.setitem(maps._BY_ID, "thm_f_to_left", broken)
    report = verify_map("thm_left_to_f", 6, 4)
    assert report.image_ok and not report.roundtrip_ok
    assert report.counterexample == "inverse thm_f_to_left points at mismatched sequences"
    rows = {row.name: row for row in verify.map_suite(8)}
    row = rows["maps/thm_left_to_f"]
    assert not row.ok and "inverse thm_f_to_left points at mismatched sequences" in row.first_failure


def test_verify_map_worked_examples(oracle):
    report = verify_map("thm_f_to_left", 6, 4)
    assert report.passed and report.domain_size == 3
    domain = oracle(K.FNUM, 2, 4)
    images = [apply_named("thm_f_to_left", 6, 4, x) for x in domain]
    assert images == [frac("0/1"), frac("1/3"), frac("1/2")]

    report = verify_map("thm_g_to_right", 6, 4)
    assert report.passed
    domain = oracle(K.GDIFF, 4, 2)
    images = [apply_named("thm_g_to_right", 6, 4, x) for x in domain]
    assert images == [frac(s) for s in ("1/2", "3/5", "2/3", "3/4", "4/5", "1/1")]

    report = verify_map("prop_left_involution", 6, 4)
    assert report.passed
    domain = oracle(K.BOOLEAN_LEFT, 6, 4)
    images = [apply_named("prop_left_involution", 6, 4, x) for x in domain]
    assert images == [frac("1/2"), frac("1/3"), frac("0/1")]


@pytest.mark.parametrize(
    "map_id, n, m",
    [
        ("prop_left_to_right_rev", 6, 4),  # injective, reversing
        ("prop_left_to_right_pres", 6, 4),  # injective, preserving
        ("mirror_full", 6, 0),  # bijective, reversing
        ("thm_f_to_left", 6, 4),  # bijective, preserving
    ],
)
def test_verify_map_rejects_a_repeated_domain_element(map_id, n, m):
    # Two equal consecutive images break a strict order in either direction.
    domain_spec = get_map(map_id).domain(n, m)

    def repeating(spec):
        seq = enumerate_sequence(spec)
        return seq[:2] + seq[1:] if spec == domain_spec else seq

    report = verify_map(map_id, n, m, oracle=repeating)
    assert report.domain_size == len(enumerate_sequence(domain_spec)) + 1
    assert not report.monotone and not report.passed
    assert report.counterexample.startswith("order breaks at images ")


def test_only_mirror_full_ignores_m():
    assert [entry.id for entry in catalog() if entry.ignores_m] == ["mirror_full"]


def test_verify_map_constraint_violation():
    with pytest.raises(DomainError):
        verify_map("prop_left_involution", 6, 2)


def test_all_maps_verify_small_sweep():
    for entry in catalog():
        for n, m in valid_parameter_pairs(entry.id, 10):
            report = verify_map(entry.id, n, m)
            assert report.passed, (entry.id, n, m, report.counterexample)


def test_composite_identities_small_sweep():
    for n in range(2, 11):
        for m in range(1, n):
            if 2 * m >= n:
                assert composite_left_identity(n, m)
            if 2 * m <= n:
                assert composite_right_identity(n, m)


def test_composite_identities_reject_the_involution_constraint():
    with pytest.raises(DomainError, match="prop_left_involution requires 2m >= n"):
        composite_left_identity(6, 2)
    with pytest.raises(DomainError, match="prop_right_involution requires 2m <= n"):
        composite_right_identity(6, 4)


def test_mirror_boolean_is_an_involution(oracle):
    for n in range(2, 11):
        for m in range(1, n):
            for x in oracle(K.BOOLEAN, n, m):
                image = apply_named("mirror_boolean", n, m, x)
                assert apply_named("mirror_boolean", n, n - m, image) == x


def test_injections_can_be_proper(oracle):
    # At n=7, m=2 the right half has more elements than the left, so the
    # right-to-left injections cannot be surjective; spot-check that the
    # verifier still accepts them as injections.
    left = oracle(K.BOOLEAN_LEFT, 7, 2)
    right = oracle(K.BOOLEAN_RIGHT, 7, 2)
    assert len(right) < len(left)
    report = verify_map("prop_right_to_left_pres", 7, 2)
    assert report.passed


# len(valid_parameter_pairs(id, 20)) for every entry, recorded before the
# candidate values of m stopped depending on the map id.
_PAIR_COUNTS_AT_20 = {
    "mirror_full": 20,
    "mirror_boolean": 190,
    "lemma_f_to_g": 210,
    "lemma_g_to_f": 210,
    "thm_left_to_f": 190,
    "thm_f_to_left": 190,
    "thm_right_to_g": 190,
    "thm_g_to_right": 190,
    "thm_left_to_gdual": 190,
    "thm_gdual_to_left": 190,
    "thm_right_to_f": 190,
    "thm_f_to_right": 190,
    "prop_left_involution": 100,
    "prop_left_to_right_pres": 100,
    "prop_left_to_right_rev": 100,
    "prop_right_involution": 100,
    "prop_right_to_left_pres": 100,
    "prop_right_to_left_rev": 100,
}


def test_valid_parameter_pair_counts_are_pinned():
    assert {entry.id: len(valid_parameter_pairs(entry.id, 20)) for entry in catalog()} == _PAIR_COUNTS_AT_20
    assert valid_parameter_pairs("mirror_full", 3) == [(1, 0), (2, 0), (3, 0)]
    assert valid_parameter_pairs("lemma_g_to_f", 2) == [(1, 0), (2, 0), (2, 1)]
    assert valid_parameter_pairs("lemma_f_to_g", 2) == [(1, 1), (2, 1), (2, 2)]
