"""Hypothesis strategies and parameter ranges shared by the tests."""

from hypothesis import assume, strategies as st

from fareysub import SequenceKind as K, SequenceSpec, make_fraction, member


def valid_ms(kind: K, n: int) -> list:
    """Every parameter value with a distinct family at order n, plus slack ones."""
    if kind is K.FULL:
        return [None]
    if kind is K.FNUM:
        return list(range(1, n + 3))
    if kind is K.GDIFF:
        return list(range(-2, n))
    return list(range(1, n))


def draw_m(draw, kind: K, n: int):
    """A parameter admissible for the kind at order n >= 2, slack values included."""
    if kind is K.FULL:
        return None
    if kind is K.FNUM:
        return draw(st.integers(1, n + 2))
    if kind is K.GDIFF:
        return draw(st.integers(-2, n - 1))
    return draw(st.integers(1, n - 1))


@st.composite
def families(draw, max_n: int):
    """A family of any kind and order 2 <= n <= max_n.

    The order is drawn within a tenth of a scale drawn first, so orders near
    max_n come up as often as small ones.
    """
    kind = draw(st.sampled_from(list(K)))
    scale = draw(st.sampled_from([10, 1000, max_n]))
    n = draw(st.integers(max(2, scale // 10), scale))
    return SequenceSpec(kind, n, draw_m(draw, kind, n))


@st.composite
def family_members(draw, max_n: int, kinds=tuple(K)):
    """A family of order 2 <= n <= max_n and a member of it, drawn as h/k and reduced.

    The kind is drawn from kinds.  Each membership condition caps one of h,
    k, k - h, 2h - k or k - 2h by a bound >= 0, and dividing out gcd(h, k)
    keeps such a value under it.
    """
    kind = draw(st.sampled_from(list(kinds)))
    n = draw(st.integers(2, max_n))
    m = draw_m(draw, kind, n)
    spec = SequenceSpec(kind, n, m)
    k = draw(st.integers(1, n))
    lo, hi = 0, k
    if kind in (K.FNUM, K.BOOLEAN, K.BOOLEAN_LEFT, K.BOOLEAN_RIGHT):
        hi = min(hi, m)
    if kind in (K.GDIFF, K.BOOLEAN, K.BOOLEAN_LEFT, K.BOOLEAN_RIGHT):
        lo = max(lo, k - (n - m))
    if kind is K.BOOLEAN_LEFT:
        hi = min(hi, k // 2)
    if kind is K.BOOLEAN_RIGHT:
        lo = max(lo, (k + 1) // 2)
    assume(lo <= hi)
    x = make_fraction(draw(st.integers(lo, hi)), k)
    assert member(spec, x)
    return spec, x
