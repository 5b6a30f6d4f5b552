"""Moebius function, coprime interval counts, cardinality and rank formulas.

Every formula is evaluated in exact integer arithmetic.  Sums with a 1/2
factor are computed as twice the sum, checked for evenness, and halved.
Each scalar count is computed once, by one closed form: a cardinality is
the fnum Moebius sum over the pieces of `sequences._pieces`, and a rank is
the coprime-count sum.  The other published closed forms are in the
`*_variants` functions, which `verify` compares with the oracle and
`fareysub card --format json` lists and compares with each other;
`cardinality_variants` picks those of any family.

The coprime-count sums factor each j <= n once per order: _divisor_table
keeps the squarefree divisors of 1..n as flat arrays in a bounded cache,
so the many calls of a sweep over one order share a single sieve.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from math import isqrt

from .fraction import DomainError, Fraction, _reduced
from .sequences import (
    _BOOL,
    _FULL,
    _GDIFF,
    SequenceSpec,
    _carried_back,
    _Piece,
    _piece,
    _pieces,
    _require_member,
    member,
)


def moebius(d: int) -> int:
    """Moebius value of a single integer via trial-division factorization.

    Independent of the sieve below on purpose: each can check the other.
    """
    if d < 1:
        raise DomainError(f"moebius is defined on positive integers, got {d}")
    result = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if d > 1:
        result = -result
    return result


# _divisor_table holds C ints, so its order is below 2**31; a Moebius table
# of that order would take 16 GB.  Counting rejects such orders up front.
_MAX_ORDER = 2**31


def _require_countable(n: int) -> None:
    """Reject an order at or above 2**31 before any table is allocated."""
    if n >= _MAX_ORDER:
        raise DomainError(f"counting requires an order below 2**31, got n={n}")


# One call reads at most three orders (bool's two halves and their shared
# bound).  A table of order n takes 8n bytes: 32 MB for four at n = 10**6.
@lru_cache(maxsize=4)
def _mu_upto(limit: int) -> tuple[int, ...]:
    """Sieved Moebius values; index d holds mu(d), index 0 is unused."""
    _require_countable(limit)
    mu = [1] * (limit + 1)
    mu[0] = 0
    is_composite = bytearray(limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not is_composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            is_composite[ip] = 1
            if i % p == 0:
                mu[ip] = 0
                break
            mu[ip] = -mu[i]
    return tuple(mu)


def _squarefree_divisors(h: int) -> list[tuple[int, int]]:
    """Pairs (d, mu(d)) over the squarefree divisors d of h, by trial division."""
    divisors = [(1, 1)]
    p = 2
    while p * p <= h:
        if h % p == 0:
            while h % p == 0:
                h //= p
            divisors += [(d * p, -s) for d, s in divisors]
        p += 1 if p == 2 else 2
    if h > 1:
        divisors += [(d * h, -s) for d, s in divisors]
    return divisors


@lru_cache(maxsize=2)
def _divisor_table(n: int) -> tuple[memoryview, memoryview]:
    """Squarefree divisors of every j <= n, flat, for the coprime-count sums.

    The divisors of j are divisors[starts[j - 1]:starts[j]]: first those
    with mu(d) = +1, then as many with mu(d) = -1 (j = 1 has only d = 1),
    so the halves meet at (starts[j - 1] + starts[j] + 1) // 2.  Each j is
    built from q = j/p, p its least prime: if p divides q too, j has the
    divisors of q; otherwise the plus half of j is the plus half of q then
    p times its minus half, and the minus half likewise.  A smallest-prime-
    factor sieve finds p: writing each d into the multiples of d*d, from the
    largest d down, leaves every index holding its least divisor above 1,
    which is prime.

    Entries are C ints, so n < 2**31; a table takes about 40 MB at
    n = 10**6.  A sweep visits one order at a time, or two when it ranks
    the two pieces of a bool family, so two entries suffice.  The views
    are read-only because every caller gets the same arrays.
    """
    _require_countable(n)
    spf = array("i", range(n + 1))
    for d in range(isqrt(n), 1, -1):
        spf[d * d :: d] = array("i", [d]) * len(range(d * d, n + 1, d))
    starts, divisors = array("i", [0, 1]), array("i", [1])
    for j in range(2, n + 1):
        p = spf[j]
        q = j // p
        a, b = starts[q - 1], starts[q]
        if q % p:
            mid = (a + b + 1) // 2
            plus, minus = divisors[a:mid], divisors[mid:b]
            divisors += plus
            divisors.extend([d * p for d in minus])
            divisors += minus
            divisors.extend([d * p for d in plus])
        else:
            divisors += divisors[a:b]
        starts.append(len(divisors))
    return memoryview(starts).toreadonly(), memoryview(divisors).toreadonly()


def _coprime_sum(n: int, r: int, h: int, k: int) -> int:
    """Sum over j <= n of the count of i coprime to j in [max(j - r, 1), jh/k].

    It is read off _divisor_table(n) with plain loops.
    """
    starts, divisors = _divisor_table(n)
    total = 0
    for j in range(1, n + 1):
        top = (j * h) // k
        low = j - r - 1 if j > r + 1 else 0
        if low >= top:
            continue
        a, b = starts[j - 1], starts[j]
        mid = (a + b + 1) // 2
        for d in divisors[a:mid]:
            total += top // d - low // d
        for d in divisors[mid:b]:
            total -= top // d - low // d
    return total


def phi_interval(h: int, i: int, l: int) -> int:
    """Count of j in [max(i, 1), l] that are coprime to h; 0 if empty."""
    if h < 1:
        raise DomainError(f"phi_interval requires h >= 1, got {h}")
    i = max(i, 1) - 1
    if i >= l:
        return 0
    return sum(s * (l // d - i // d) for d, s in _squarefree_divisors(h))


def _check_even_halved(twice: int, what: str) -> int:
    if twice % 2 != 0:
        raise RuntimeError(f"{what}: doubled sum {twice} is odd")
    return twice // 2


def _size(pieces: tuple[_Piece, ...]) -> int:
    """Members of the family that these pieces of `sequences._pieces` make up.

    A piece gdiff(n', m') has |fnum(n', n' - m')| members, by the mirror;
    the two pieces of bool share 1/2.
    """
    return sum(f_cardinality(n, n - m) for n, m, _ in pieces) + 1 - len(pieces)


def cardinality(spec: SequenceSpec) -> int:
    """Size of a family of any of the six kinds, by one Moebius sum per piece."""
    # bool's pieces are smaller than n, so their tables would not catch it.
    _require_countable(spec.n)
    return _size(_pieces(spec))


def cardinality_variants(spec: SequenceSpec) -> tuple[str, dict[str, int]]:
    """The reported formula's name and every closed form of the family size."""
    _require_countable(spec.n)  # as in cardinality
    if spec.kind is _GDIFF:
        return "phi-sum", g_cardinality_variants(spec.n, spec.m)
    if spec.kind is _BOOL:
        return "half-sum", boolean_cardinality_variants(spec.n, spec.m)
    # One piece, gdiff(n', m'): as large as fnum(n', n' - m'), its mirror image.
    ((n, m, _),) = _pieces(spec)
    return "moebius-sum", f_cardinality_variants(n, n - m)


def g_cardinality_variants(n: int, m: int) -> dict[str, int]:
    """Both closed forms of the gdiff family size, keyed by variant name."""
    moebius_sum = g_cardinality(n, m)
    # 0/1 plus the members in (0, 1/1]; the difference bound is slack for m <= 0.
    return {"phi-sum": 1 + _coprime_sum(n, n - max(m, 0), 1, 1), "moebius-sum": moebius_sum}


def g_cardinality(n: int, m: int) -> int:
    """Size of the gdiff family."""
    return cardinality(SequenceSpec(_GDIFF, n, m))


def g_rank(n: int, m: int, x: Fraction) -> int:
    """Zero-based index of x in the gdiff family, by the coprime-count sum."""
    if not member(SequenceSpec(_GDIFF, n, m), x):
        raise DomainError(f"{x} has no rank in the gdiff family n={n}, m={m}")
    m = max(m, 0)
    return _coprime_sum(n, n - m, x.num, x.den)


def g_rank_variants(n: int, m: int, x: Fraction) -> dict[str, int]:
    """Rank formulas for x in the gdiff family.

    "phi-sum" is authoritative.  "moebius-sum" reproduces a published closed
    form whose transcription is less certain; callers should report rather
    than trust a disagreement (none has been observed: against the oracle
    up to n = 30, against phi-sum on sampled members up to n = 3000).
    """
    variants = {"phi-sum": g_rank(n, m, x)}
    m = max(m, 0)
    h, k = x.num, x.den
    mu = _mu_upto(n)
    twice = 2
    for d in range(1, n + 1):
        if mu[d] == 0:
            continue
        nd, rd = n // d, (n - m) // d
        inner = 0  # sum of min(rd, j(k-h)/k) over j <= nd; the floor never falls
        for j in range(1, nd + 1):
            term = (j * (k - h)) // k
            if term >= rd:
                inner += rd * (nd + 1 - j)
                break
            inner += term
        twice += mu[d] * (rd * (2 * nd - rd - 1) - 2 * inner)
    variants["moebius-sum"] = _check_even_halved(twice, f"gdiff rank n={n} m={m} x={x}")
    return variants


def rank(spec: SequenceSpec, x: Fraction) -> int:
    """Zero-based index of x in any of the six families, without enumeration.

    x is carried back into its piece of `sequences._pieces` and ranked there
    by g_rank, from the top if the piece's map M has det M = -1; past 1/2
    the bool family adds the first half, which shares 1/2 with the second.
    """
    _require_member(spec, x)
    _require_countable(spec.n)  # as in cardinality
    pieces = _pieces(spec)
    n, m, M = piece = _piece(pieces, x.num, x.den, -1)
    index = g_rank(n, m, _reduced(*_carried_back(M, x.num, x.den)))
    if M.det < 0:
        index = _size((piece,)) - 1 - index
    if piece is not pieces[0]:
        index += _size(pieces[:1]) - 1
    return index


def f_cardinality_variants(q: int, p: int) -> dict[str, int]:
    """Both Moebius closed forms of the fnum family size."""
    moebius_sum = f_cardinality(q, p)
    p = min(p, q)
    mu = _mu_upto(q)
    twice = 3 + sum(mu[d] * (p // d) * (2 * (q // d) - p // d) for d in range(1, q + 1))
    return {
        "moebius-sum": moebius_sum,
        "moebius-sum-alt": _check_even_halved(twice, f"fnum cardinality alt q={q} p={p}"),
    }


def f_cardinality(q: int, p: int) -> int:
    """Size of the fnum family of order q with numerator bound p."""
    if q < 1 or p < 1:
        raise DomainError(f"fnum cardinality requires q >= 1 and p >= 1, got q={q}, p={p}")
    p = min(p, q)  # the numerator bound is slack beyond q
    mu = _mu_upto(q)
    twice = 2 + sum(mu[d] * (2 * (q // d) - p // d) * (p // d + 1) for d in range(1, q + 1))
    return _check_even_halved(twice, f"fnum cardinality q={q} p={p}")


def full_cardinality(n: int) -> int:
    """Size of the full Farey sequence of order n."""
    return cardinality(SequenceSpec(_FULL, n))


def boolean_cardinality_variants(n: int, m: int) -> dict[str, int]:
    """Both closed forms of the bool family size."""
    half_sum = boolean_cardinality(n, m)
    p = min(m, n - m)
    mu = _mu_upto(p)
    product = 2 + sum(mu[d] * (m // d) * ((n - m) // d) for d in range(1, p + 1))
    return {"half-sum": half_sum, "moebius-product": product}


def boolean_cardinality(n: int, m: int) -> int:
    """Size of the bool family: its two halves, which share 1/2."""
    return cardinality(SequenceSpec(_BOOL, n, m))


def moebius_floor_sum(t: int) -> int:
    """sum of mu(d) * floor(t/d) for d up to t; equals 1 for every t >= 1."""
    if t < 1:
        raise DomainError(f"t must be positive, got {t}")
    mu = _mu_upto(t)
    return sum(mu[d] * (t // d) for d in range(1, t + 1))


def moebius_floor_square_sum(t: int) -> int:
    """sum of mu(d) * floor(t/d)^2 for d up to t."""
    if t < 1:
        raise DomainError(f"t must be positive, got {t}")
    mu = _mu_upto(t)
    return sum(mu[d] * (t // d) ** 2 for d in range(1, t + 1))


def central_identity_check(t: int) -> bool:
    """Check the square-sum identity tying three independent counts together.

    For a positive integer t the following must hold:
      sum mu(d)*floor(t/d)    == 1
      sum mu(d)*floor(t/d)^2  == |bool family of (2t, t)| - 2
                              == 2*|full Farey of order t| - 3
    A False return indicates an implementation bug, not a bad input.
    """
    square = moebius_floor_square_sum(t)
    return (
        moebius_floor_sum(t) == 1
        and square == boolean_cardinality(2 * t, t) - 2
        and square == 2 * full_cardinality(t) - 3
    )
