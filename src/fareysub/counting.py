"""Moebius function, coprime interval counts, cardinality and rank formulas.

Every formula is evaluated in exact integer arithmetic.  Sums with a 1/2
factor are computed as twice the sum, checked for evenness, and halved.

One kernel counts, _coprime_sum: the members of gdiff(n, n - r) in
(0, h/k] are counted by the sum of mu(d) * T(n // d, r // d) over d.  Both
quotients are constant on O(sqrt n) runs of d, which _blocks walks: each
run adds its weight, the sum of mu over the run, times one T, a
Euclid-like floor sum (the floor_sum of the AtCoder Library).  So a rank,
the kernel at the member carried back into its piece of
`sequences._pieces`, takes O(sqrt(n) log k) steps after the O(n) C-level
pass that sums the run weights.  A cardinality is the kernel at h/k = 1/1,
where T has a closed form, summed over the pieces.

Each call fetches one Moebius table, at the largest order it reads: a
bool family's smaller piece, and its "moebius-product", read a prefix of
the table of the larger piece.

The other published closed forms are in the `*_variants` functions, which
`verify` compares with the oracle and json `fareysub card` and `rank` list
and compare with each other; `cardinality_variants` picks those of any
family.  Beside the kernel value each lists forms that run per d on
purpose, reading the table but never _blocks: "moebius-sum-alt" of fnum
and, through the mirror, "moebius-sum" of gdiff, both _per_d_size;
"moebius-product" of bool; and the "moebius-sum" gdiff rank.  So do
moebius_floor_sum and moebius_floor_square_sum.  Each adds one term per
squarefree d, picked out by the nonzero entries of the table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import isqrt, prod
from typing import Iterator

from .fraction import DomainError, Fraction, _reduced
from .sequences import (
    _BOOL,
    _FNUM,
    _FULL,
    _GDIFF,
    SequenceSpec,
    _carried_back,
    _Piece,
    _piece,
    _pieces,
    _prime_factors,
    _require_member,
    member,
)


def moebius(d: int) -> int:
    """Moebius value of a single integer, from the oracle's factorizer.

    Independent of the sieve below on purpose: each can check the other.
    """
    if d < 1:
        raise DomainError(f"moebius is defined on positive integers, got {d}")
    primes = _prime_factors(d)
    return 0 if prod(primes) != d else (-1) ** len(primes)


# A _mu_upto table takes 1 byte an entry, and sieving it about 3, so one of
# order 2**31 would take 2 GB and 6 GB on the way.  Counting rejects such
# orders up front.
_MAX_ORDER = 2**31


def _require_countable(n: int) -> None:
    """Reject an order at or above 2**31 before any table is allocated."""
    if n >= _MAX_ORDER:
        raise DomainError(f"counting requires an order below 2**31, got n={n}")


# The sign flip of a Moebius byte: 1 and -1 (0xff) swap, 0 stays.
_FLIP = bytes.maketrans(b"\x01\xff", b"\xff\x01")
# A prime flag as the XOR mask that flips a sign: 1 ^ 0xfe is 0xff, and back.
_XOR_FLIP = bytes.maketrans(b"\x01", b"\xfe")
# Primes p > limit // _FEW have fewer than _FEW multiples up to limit; they are
# flipped _CHUNK primes at a time.  One XOR holds about 5 bytes a prime of the
# chunk, so from limit = 8 * _CHUNK on the sieve peaks at 3 bytes an entry.
_FEW = 8
_CHUNK = 2**16


# One table is kept: every call reads one, at its largest order, and a CLI
# process makes one call.  More slots never hit in the count benchmark, and
# `verify --max-n 20` missed 470 times with four against 560 with one, on
# tables of order <= 600; four tables near n = 10**8 would hold 400 MB.
@lru_cache(maxsize=1)
def _mu_upto(limit: int) -> memoryview:
    """Sieved Moebius values; index d holds mu(d), and index 0 holds 0.

    A byte sieve.  Each prime p < cut = max(sqrt(limit), limit // _FEW) + 1
    flips the sign of its multiples in one C-level translate.  A prime p >=
    cut has j * p <= limit only for j <= limit // cut < _FEW, so for each
    such j the multiples j * p of a chunk of primes, a stride-j slice, are
    flipped at once by an XOR of two big ints with the prime flags as mask.
    That is a sign flip only while every entry is 1 or -1, so the multiples
    of each p * p, p <= sqrt(limit), are zeroed last.  Sieving takes about 3
    bytes an entry at the peak.  The table is a read-only view of signed
    bytes, shared by every caller through the cache.
    """
    _require_countable(limit)
    size = limit + 1
    mu = bytearray(b"\x01") * size
    mu[0] = 0
    prime = bytearray(b"\x01") * size
    flags = memoryview(prime)  # compress reads the flags without a copy
    root = isqrt(limit)
    for p in range(2, root + 1):
        if prime[p]:
            prime[p * p :: p] = bytes((limit - p * p) // p + 1)
    cut = max(root, limit // _FEW) + 1
    for p in compress(range(2, cut), flags[2:cut]):
        mu[p::p] = mu[p::p].translate(_FLIP)
    for lo in range(cut, size, _CHUNK):
        hi = lo + _CHUNK
        mask = prime[lo:hi].translate(_XOR_FLIP)
        for j in range(1, limit // lo + 1):
            seg = mu[j * lo : j * hi : j]
            count = len(seg)
            flipped = int.from_bytes(seg, "little") ^ int.from_bytes(mask[:count], "little")
            mu[j * lo : j * hi : j] = flipped.to_bytes(count, "little")
    for p in compress(range(2, root + 1), flags[2 : root + 1]):
        mu[p * p :: p * p] = bytes(limit // (p * p))
    return memoryview(mu).cast("b").toreadonly()


def _blocks(mu: memoryview, n: int, r: int, stop: int) -> Iterator[tuple[int, int, int]]:
    """(weight, n // d, r // d) for each run d..e <= stop of equal quotients.

    stop is n // c for some c >= 1: n // d >= c on [1, stop], so no run
    ends past stop.  The runs tile [1, stop]; on each, n // d and r // d
    are constant, and the weight is the sum over the run of mu, a _mu_upto
    table of order at least stop.  Runs of weight 0 are skipped.  Below
    sqrt(n) most runs hold one d; past it there are at most
    2 sqrt(n) + 2 sqrt(r) of them, for 0 <= r <= n.
    """
    d = 1
    while d <= stop:
        N, R = n // d, r // d
        e = n // N
        if R and r // R < e:
            e = r // R
        weight = mu[d] if d == e else sum(mu[d : e + 1])
        if weight:
            yield weight, N, R
        d = e + 1


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) over 0 <= i < n, for n >= 0, m >= 1, a, b >= 0.

    Euclid-like, in O(log m) steps: whole quotients of a and b are summed in
    closed form, and the rest is the same sum with the roles of a and m
    swapped, counted along the other axis.
    """
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _below(N: int, R: int, h: int, k: int) -> int:
    """T(N, R): the sum over j <= N of #{i : max(1, j - R) <= i <= jh/k}, for h <= k.

    Up to j = R + 1 the count is floor(jh/k).  Past it, it is floor(jh/k) -
    (j - R - 1), positive up to the crossing J = floor(Rk/(k - h)) and empty
    beyond.  So T is one floor sum up to min(N, J), less the triangle cut off
    past R + 1, or just the floor sum up to min(N, R + 1) when J <= R + 1.
    At h/k = 1/1 the crossing never comes, and T is A(A + 1)/2 +
    (N - A)(R + 1) with A = min(N, R + 1).  Comparisons stand in for min():
    T runs once per run of _blocks.
    """
    if h == k:
        A = N if N <= R else R + 1
        return A * (A + 1) // 2 + (N - A) * (R + 1)
    J = R * k // (k - h)
    top = J if J < N else N
    cut = top - R - 1
    if cut <= 0:
        return _floor_sum((N if N <= R else R + 1) + 1, k, h, 0)
    return _floor_sum(top + 1, k, h, 0) - cut * (cut + 1) // 2


def _coprime_sum(mu: memoryview, n: int, r: int, h: int, k: int) -> int:
    """Sum over j <= n of the count of i coprime to j in [max(j - r, 1), jh/k].

    By Moebius inversion over the d dividing gcd(i, j), with d outermost:
    the pairs that d divides are d times the pairs (i', j') with
    j' <= n // d and max(1, j' - r // d) <= i' <= j'h/k, since
    ceil((dj' - r)/d) = j' - r // d.  So the sum is that of
    mu(d) * T(n // d, r // d) over d <= n, one T per run of _blocks over
    mu, a _mu_upto table of order at least n.  T(N, R) is 0 unless some
    j <= N has jh >= k, so d stops at n // ceil(k/h).
    """
    if h == 0:
        return 0
    blocks = _blocks(mu, n, r, n // -(-k // h))
    return sum([w * _below(N, R, h, k) for w, N, R in blocks])


def phi_interval(h: int, i: int, l: int) -> int:
    """Count of j in [max(i, 1), l] coprime to h, by inclusion-exclusion; 0 if empty."""
    if h < 1:
        raise DomainError(f"phi_interval requires h >= 1, got {h}")
    i = max(i, 1) - 1
    if i >= l:
        return 0
    divisors = [(1, 1)]
    for p in _prime_factors(h):
        divisors += [(d * p, -s) for d, s in divisors]
    return sum(s * (l // d - i // d) for d, s in divisors)


def _check_even_halved(twice: int, what: str, *parts: object) -> int:
    """Half of twice; what.format(*parts) names the sum if twice is odd."""
    if twice % 2 != 0:
        raise RuntimeError(f"{what.format(*parts)}: doubled sum {twice} is odd")
    return twice // 2


def _table(spec: SequenceSpec) -> tuple[tuple[_Piece, ...], memoryview]:
    """The pieces of spec and the one Moebius table they read: that of the largest."""
    # bool's pieces are smaller than n, so their table would not catch it.
    _require_countable(spec.n)
    pieces = _pieces(spec)
    return pieces, _mu_upto(max([n for n, _, _ in pieces]))


def _size(pieces: tuple[_Piece, ...], mu: memoryview) -> int:
    """Members of the family that these pieces of `sequences._pieces` make up.

    A piece gdiff(n', m') is 0/1 plus its members in (0, 1/1], which the
    kernel counts over mu, a table of order at least n'.  The two pieces of
    bool share 1/2, the image of 0/1, so 0/1 is added once in all.
    """
    return 1 + sum([_coprime_sum(mu, n, n - m, 1, 1) for n, m, _ in pieces])


def cardinality(spec: SequenceSpec) -> int:
    """Size of a family of any of the six kinds, by the kernel at 1/1 per piece."""
    return _size(*_table(spec))


def cardinality_variants(spec: SequenceSpec) -> tuple[str, dict[str, int]]:
    """The reported formula's name and every closed form of the family size."""
    _require_countable(spec.n)  # the one-piece branch reads a smaller table, the piece's
    if spec.kind is _GDIFF:
        return "phi-sum", g_cardinality_variants(spec.n, spec.m)
    if spec.kind is _BOOL:
        return "half-sum", boolean_cardinality_variants(spec.n, spec.m)
    # One piece, gdiff(n', m'): as large as fnum(n', n' - m'), its mirror image.
    ((n, m, _),) = _pieces(spec)
    return "moebius-sum", f_cardinality_variants(n, n - m)


def g_cardinality_variants(n: int, m: int) -> dict[str, int]:
    """Both closed forms of the gdiff family size, keyed by variant name.

    "phi-sum" is the kernel; "moebius-sum" is _per_d_size at the mirror
    image fnum(n, n - m) (lemma_g_to_f), with m slack below 0.
    """
    phi_sum = g_cardinality(n, m)
    return {"phi-sum": phi_sum, "moebius-sum": _per_d_size(_mu_upto(n), n, n - max(m, 0))}


def g_cardinality(n: int, m: int) -> int:
    """Size of the gdiff family."""
    return cardinality(SequenceSpec(_GDIFF, n, m))


def g_rank(n: int, m: int, x: Fraction) -> int:
    """Zero-based index of x in the gdiff family, by the coprime-count sum."""
    if not member(SequenceSpec(_GDIFF, n, m), x):
        raise DomainError(f"{x} has no rank in the gdiff family n={n}, m={m}")
    m = max(m, 0)
    return _coprime_sum(_mu_upto(n), n, n - m, x.num, x.den)


def g_rank_variants(n: int, m: int, x: Fraction) -> dict[str, int]:
    """Rank formulas for x in the gdiff family.

    "phi-sum" is the kernel; "moebius-sum" is a published closed form, run
    per squarefree d.  They have been checked against the oracle on every
    member up to n = 40 with m in [-2, n - 1], and against each other on
    sampled members up to n = 5000 and at n = 10^6.
    """
    variants = {"phi-sum": g_rank(n, m, x)}
    m = max(m, 0)
    h, k = x.num, x.den
    mu = _mu_upto(n)
    twice = 2
    # Past d = n - m, rd is 0 and so is the term.
    for d in compress(range(1, n - m + 1), mu[1:]):
        nd, rd = n // d, (n - m) // d
        # The sum of min(rd, floor(j(k - h)/k)) over j <= nd.  The floor never
        # falls, and stays below rd up to the crossing ceil(rd k/(k - h)) - 1;
        # so it is one floor sum up to there and rd for each j beyond.  At
        # h = k every term is 0.
        inner = 0
        if h < k:
            last = min(nd, -(-rd * k // (k - h)) - 1)
            inner = _floor_sum(last + 1, k, k - h, 0) + rd * (nd - last)
        twice += mu[d] * (rd * (2 * nd - rd - 1) - 2 * inner)
    variants["moebius-sum"] = _check_even_halved(twice, "gdiff rank n={} m={} x={}", n, m, x)
    return variants


def rank(spec: SequenceSpec, x: Fraction) -> int:
    """Zero-based index of x in any of the six families, without enumeration.

    x is carried back into its piece of `sequences._pieces`, checked to be a
    member there, and ranked by the coprime-count sum, from the top if the
    piece's map M has det M = -1; past 1/2 the bool family adds the first
    half, which shares 1/2 with the second.
    """
    _require_member(spec, x)
    pieces, mu = _table(spec)
    n, m, M = piece = _piece(pieces, x.num, x.den, -1)
    y = _reduced(*_carried_back(M, x.num, x.den))
    _require_member(SequenceSpec(_GDIFF, n, m), y)
    index = _coprime_sum(mu, n, n - m, y.num, y.den)
    if M.det < 0:
        index = _size((piece,), mu) - 1 - index
    if piece is not pieces[0]:
        index += _size(pieces[:1], mu) - 1
    return index


def f_cardinality_variants(q: int, p: int) -> dict[str, int]:
    """Both Moebius closed forms of the fnum family size: the kernel and _per_d_size."""
    moebius_sum = f_cardinality(q, p)
    return {"moebius-sum": moebius_sum, "moebius-sum-alt": _per_d_size(_mu_upto(q), q, min(p, q))}


def f_cardinality(q: int, p: int) -> int:
    """Size of the fnum family of order q with numerator bound p, by the kernel."""
    return cardinality(SequenceSpec(_FNUM, q, p))


def _per_d_size(mu: memoryview, q: int, p: int) -> int:
    """|fnum(q, p)|, 1 <= p <= q, by the published sum over squarefree d <= p.

    (3 + the sum of mu(d) * (p // d) * (2(q // d) - p // d)) / 2, for mu a
    table of order at least p; each term past p would be 0.
    """
    squarefree = compress(range(1, p + 1), mu[1:])
    twice = 3 + sum(mu[d] * (p // d) * (2 * (q // d) - p // d) for d in squarefree)
    return _check_even_halved(twice, "fnum cardinality alt q={} p={}", q, p)


def full_cardinality(n: int) -> int:
    """Size of the full Farey sequence of order n."""
    return cardinality(SequenceSpec(_FULL, n))


def boolean_cardinality_variants(n: int, m: int) -> dict[str, int]:
    """Both closed forms of the bool family size."""
    half_sum = boolean_cardinality(n, m)
    p = min(m, n - m)
    mu = _mu_upto(max(m, n - m))  # the table of the larger piece, which half_sum read
    squarefree = compress(range(1, p + 1), mu[1:])
    product = 2 + sum(mu[d] * (m // d) * ((n - m) // d) for d in squarefree)
    return {"half-sum": half_sum, "moebius-product": product}


def boolean_cardinality(n: int, m: int) -> int:
    """Size of the bool family: its two halves, which share 1/2."""
    return cardinality(SequenceSpec(_BOOL, n, m))


def moebius_floor_sum(t: int) -> int:
    """sum of mu(d) * floor(t/d) for d up to t; equals 1 for every t >= 1."""
    if t < 1:
        raise DomainError(f"t must be positive, got {t}")
    mu = _mu_upto(t)
    return sum(mu[d] * (t // d) for d in compress(range(1, t + 1), mu[1:]))


def moebius_floor_square_sum(t: int) -> int:
    """sum of mu(d) * floor(t/d)^2 for d up to t."""
    if t < 1:
        raise DomainError(f"t must be positive, got {t}")
    mu = _mu_upto(t)
    return sum(mu[d] * (t // d) ** 2 for d in compress(range(1, t + 1), mu[1:]))


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
