"""Closed-form diagonal greedy and exchange-step arithmetic, kept as references.

These are former library helpers of blocksel.separable, unchanged; no
solver path calls them.  Tests check the diagonal solver against
diag_greedy, and the exchange neighbourhoods and the exchange set against
q_closeness and delta_value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from blocksel.separable import ValTable


def diag_greedy(
    a: Sequence[Fraction], b_prime: Sequence[Fraction], sigma: int
) -> tuple[list[Fraction], Fraction, list[int]]:
    """Closed-form solution for a diagonal system with an adjusted right side.

    Only coordinates with a nonzero diagonal entry can absorb anything; among
    those, picking the min(sigma, count) largest |b'| values is optimal.  Ties
    go to the smaller index.  Returns (x, objective, chosen indices).
    """
    if len(a) != len(b_prime):
        raise ValueError("a and b' must have the same length")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    n = len(a)
    hittable = [i for i in range(n) if a[i] != 0]
    ranked = sorted(hittable, key=lambda i: (-abs(b_prime[i]), i))
    chosen = sorted(ranked[: min(sigma, len(hittable))])
    chosen_set = set(chosen)
    x = [Fraction(0)] * n
    objective = Fraction(0)
    for i in range(n):
        if i in chosen_set:
            x[i] = b_prime[i] / a[i]
        else:
            objective += b_prime[i] * b_prime[i]
    return x, objective, chosen


def q_closeness(j_from: Sequence[int], j_to: Sequence[int]) -> int:
    """Total decrease q between consecutive-level allocations.

    Requires sum(j_to) == sum(j_from) + 1; the total increase is then q + 1
    and the l1 distance 2q + 1.
    """
    if len(j_from) != len(j_to):
        raise ValueError("allocations must have the same length")
    if sum(j_to) != sum(j_from) + 1:
        raise ValueError("target must sit one level above the source")
    return sum(f - t for f, t in zip(j_from, j_to) if t < f)


def delta_value(
    table: ValTable, j_source: Sequence[int], j_target: Sequence[int]
) -> Fraction:
    """Exact cost difference of an exchange step on a numeric table."""
    q_closeness(j_source, j_target)  # validates the level relation
    total = Fraction(0)
    for i, (f, t) in enumerate(zip(j_source, j_target)):
        if f != t:
            total += table.values[i][t] - table.values[i][f]
    return total
