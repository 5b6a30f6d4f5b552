"""The benchmark's own arithmetic: membership, sampling, counting, checkers.

Nothing here imports fareysub.  Fractions are plain (h, k) int pairs, and
every answer the package gives is judged by this independent code:

* membership of h/k in a family, read off the definitions;
* uniform sampling of members by rejection in (h, g) coordinates, where
  g = k - h: h/k is reduced iff gcd(h, g) = 1, and every family is a box or
  triangle in (h, g), so sampling works at any n;
* cardinalities by a totient-style sieve over denominators;
* the O(1) adjacency certificate: a < b are consecutive members iff both are
  members, det(a, b) = 1 and their mediant is not a member.

Checkers return None for a correct answer and a short message otherwise.
"""

from __future__ import annotations

from math import gcd

KINDS = ("full", "fnum", "gdiff", "bool", "bool-left", "bool-right")


def is_member(kind: str, n: int, m: int, h: int, k: int) -> bool:
    """Whether the pair h/k is a reduced member of the family (kind, n, m)."""
    if not (0 < k <= n and 0 <= h <= k) or gcd(h, k) != 1:
        return False
    if kind == "full":
        return True
    if kind == "fnum":
        return h <= m
    if kind == "gdiff":
        return k - h <= n - m
    if h > m or k - h > n - m:
        return False
    if kind == "bool-left":
        return 2 * h <= k
    if kind == "bool-right":
        return 2 * h >= k
    return True


def endpoints(kind: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """First and last element of every family of that kind."""
    if kind == "bool-left":
        return (0, 1), (1, 2)
    if kind == "bool-right":
        return (1, 2), (1, 1)
    return (0, 1), (1, 1)


def _box(kind: str, n: int, m: int) -> tuple[int, int]:
    """Bounds (hmax, gmax) of a box in (h, g) that contains the family."""
    if kind == "full":
        return n, n
    if kind == "fnum":
        return min(m, n), n
    if kind == "gdiff":
        return n, min(n, n - m)
    if kind == "bool-left":
        return min(m, n - m), n - m
    if kind == "bool-right":
        return m, min(m, n - m)
    return m, n - m


def draw_member(rng, kind: str, n: int, m: int) -> tuple[int, int]:
    """A member h/k drawn uniformly from the family, by rejection in (h, g)."""
    hmax, gmax = _box(kind, n, m)
    while True:
        h = rng.randint(0, hmax)
        g = rng.randint(0, gmax)
        if is_member(kind, n, m, h, h + g):
            return h, h + g


def draw_non_member(rng, n: int) -> tuple[int, int]:
    """A reduced h/k in [0, 1] with n < k <= 2n, outside every family of order n."""
    while True:
        k = rng.randint(n + 1, 2 * n)
        h = rng.randint(0, k)
        if gcd(h, k) == 1:
            return h, k


def squarefree_divisors(limit: int) -> list[list[tuple[int, int]]]:
    """Entry k lists (d, mu(d)) over the squarefree divisors d of k."""
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    table: list[list[tuple[int, int]]] = [[], [(1, 1)]]
    for k in range(2, limit + 1):
        p = spf[k]
        rest = k
        while rest % p == 0:
            rest //= p
        base = table[rest]
        table.append(base + [(d * p, -s) for d, s in base])
    return table


def _h_range(kind: str, n: int, m: int, k: int) -> tuple[int, int]:
    lo, hi = 0, k
    if kind in ("fnum", "bool", "bool-left", "bool-right"):
        hi = min(hi, m)
    if kind in ("gdiff", "bool", "bool-left", "bool-right"):
        lo = max(lo, k - (n - m))
    if kind == "bool-left":
        hi = min(hi, k // 2)
    elif kind == "bool-right":
        lo = max(lo, (k + 1) // 2)
    return lo, hi


def sieve_count(kind: str, n: int, m: int, divisors: list[list[tuple[int, int]]]) -> int:
    """Size of the family (kind, n, m), counted denominator by denominator.

    For each k <= n the admissible numerators form one interval, and the
    members are its elements coprime to k, counted by inclusion-exclusion
    over the squarefree divisors of k.  `divisors` must reach n.
    """
    if kind == "fnum":
        m = min(m, n)
    elif kind == "gdiff":
        m = max(m, 0)
    total = 0
    for k in range(1, n + 1):
        lo, hi = _h_range(kind, n, m, k)
        if k == 1:
            total += max(0, hi - lo + 1)
            continue
        # h = 0 and h = k are never coprime to k > 1.
        lo, hi = max(lo, 1), min(hi, k - 1)
        if lo > hi:
            continue
        total += sum(s * (hi // d - (lo - 1) // d) for d, s in divisors[k])
    return total


def check_chain(kind: str, n: int, m: int, pairs, expected_len: int) -> str | None:
    """A whole sequence: every element a member, det 1 between neighbors,
    the right endpoints and the expected length.  Together these prove the
    sequence is exactly the family: det 1 forces a strictly ascending chain
    of distinct members, and there are only expected_len of them.
    """
    first_want, last_want = endpoints(kind)
    count = 0
    prev = None
    for h, k in pairs:
        if not is_member(kind, n, m, h, k):
            return f"{h}/{k} is not a member"
        if prev is None:
            if (h, k) != first_want:
                return f"starts at {h}/{k}"
        elif prev[1] * h - prev[0] * k != 1:
            return f"{prev[0]}/{prev[1]}, {h}/{k} are not adjacent"
        prev = (h, k)
        count += 1
    if prev != last_want:
        return f"ends at {prev}"
    if count != expected_len:
        return f"{count} elements, expected {expected_len}"
    return None


def check_adjacent(kind: str, n: int, m: int, a: tuple[int, int], b: tuple[int, int]) -> str | None:
    """The adjacency certificate for a < b in the family (kind, n, m)."""
    if not is_member(kind, n, m, *a) or not is_member(kind, n, m, *b):
        return f"{a[0]}/{a[1]} or {b[0]}/{b[1]} is not a member"
    if a[1] * b[0] - a[0] * b[1] != 1:
        return f"det({a[0]}/{a[1]}, {b[0]}/{b[1]}) != 1"
    if is_member(kind, n, m, a[0] + b[0], a[1] + b[1]):
        return f"mediant of {a[0]}/{a[1]}, {b[0]}/{b[1]} is a member"
    return None


def check_neighbors(kind: str, n: int, m: int, x, pred, succ) -> str | None:
    """pred and succ of x, with None exactly at the family's ends."""
    first, last = endpoints(kind)
    for side, want_none, pair in (("pred", x == first, pred), ("succ", x == last, succ)):
        if want_none != (pair is None):
            return f"{side} of {x} is {pair}"
    if pred is not None and (err := check_adjacent(kind, n, m, pred, x)):
        return err
    if succ is not None and (err := check_adjacent(kind, n, m, x, succ)):
        return err
    return None


def invert_image(matrix: tuple[int, int, int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Preimage of y under the unimodular matrix (a, b, c, d), reduced."""
    a, b, c, d = matrix
    det = a * d - b * c
    h = det * (d * y[0] - b * y[1])
    k = det * (a * y[1] - c * y[0])
    if k < 0:
        h, k = -h, -k
    g = gcd(h, k) or 1
    return h // g, k // g
