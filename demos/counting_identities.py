#!/usr/bin/env python3
"""Cardinalities and ranks from Moebius sums, with the square-sum identity.

Every count has at least two independent closed forms.  The library
computes one of them per call and keeps the others in its `*_variants`
functions, which `fareysub verify` compares with the brute-force
enumeration; this script compares the counts with the enumeration too.
"""

from fareysub import (
    SequenceKind,
    SequenceSpec,
    boolean_cardinality,
    central_identity_check,
    enumerate_sequence,
    f_cardinality,
    full_cardinality,
    g_cardinality,
    g_rank,
    g_rank_variants,
    moebius_floor_square_sum,
    moebius_floor_sum,
)


def main():
    print("Sizes of the doubly-bounded family, all m at order n=12:")
    n = 12
    for m in range(1, n):
        formula = boolean_cardinality(n, m)
        oracle = len(enumerate_sequence(SequenceSpec(SequenceKind.BOOLEAN, n, m)))
        print(f"  m={m:>2}: formula {formula:>3}, enumerated {oracle:>3}")
    print()

    print("Rank of every element of the difference-bounded family n=10, m=6:")
    seq = enumerate_sequence(SequenceSpec(SequenceKind.GDIFF, 10, 6))
    for i, x in enumerate(seq):
        if i == 0:
            continue
        variants = g_rank_variants(10, 6, x)
        print(
            f"  {str(x):>5}: phi-sum {g_rank(10, 6, x):>2}, "
            f"moebius form {variants['moebius-sum']:>2}, enumerated {i:>2}"
        )
    print()

    print("The floor sum collapses to 1 and the square sum ties three counts:")
    print("  t   sum mu(d)floor(t/d)   sum mu(d)floor(t/d)^2   |bool(2t,t)|-2   2|full(t)|-3")
    for t in range(1, 13):
        square = moebius_floor_square_sum(t)
        print(
            f"  {t:>2}  {moebius_floor_sum(t):>19}   {square:>21}   "
            f"{boolean_cardinality(2 * t, t) - 2:>14}   {2 * full_cardinality(t) - 3:>12}"
        )
    print()

    checked = all(central_identity_check(t) for t in range(1, 301))
    print(f"central identity holds for all t <= 300: {checked}")
    print(f"|full Farey of order 500| = {full_cardinality(500)}")
    print(f"|numerator-bounded (500, 250)| = {f_cardinality(500, 250)}")
    print(f"|difference-bounded (500, 250)| = {g_cardinality(500, 250)}")
    print(f"|doubly-bounded (1000, 500)| = {boolean_cardinality(1000, 500)}")


if __name__ == "__main__":
    main()
