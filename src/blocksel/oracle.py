"""Brute-force reference solvers that certify the main pipeline at small scale.

Nothing here shares candidate generation with the solver module: brute
force enumerates every support directly and reuses only the exact least
squares.  brute_force answers one budget, brute_force_levels every budget
from one enumeration.  Agreement between the two stacks is what the test
suite, the compare command and the benchmark lean on.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from .linalg import least_squares
from .model import (
    BudgetExceededError,
    Instance,
    InvariantError,
    Solution,
    make_solution,
    validate,
)


def _all_columns(instance: Instance) -> list[tuple[Fraction, ...]]:
    """The d selectable columns of the stacked system, block part first."""
    m = instance.m_total
    row_offsets = instance.row_offsets()
    cols: list[tuple[Fraction, ...]] = []
    for bi, blk in enumerate(instance.blocks):
        r0 = row_offsets[bi]
        for c in range(blk.cols):
            col = [Fraction(0)] * m
            for r in range(blk.rows):
                col[r0 + r] = blk.at(r, c)
            cols.append(tuple(col))
    cols.extend(instance.coupling)
    return cols


def _support_count(d: int, sigma: int) -> int:
    return sum(math.comb(d, s) for s in range(sigma + 1))


def brute_force(instance: Instance, max_supports: int = 10**6) -> Solution:
    """Exact optimum by enumerating every support of size at most sigma.

    The intercept column, when present, is appended free to every support.
    Ties prefer the lexicographically smallest support.  Raises
    BudgetExceededError before starting when the enumeration is too large.
    """
    problems = validate(instance)
    if problems:
        raise ValueError("; ".join(problems))
    total = _support_count(instance.d, instance.sigma)
    if total > max_supports:
        raise BudgetExceededError(
            f"brute force over {total} supports exceeds the limit of {max_supports}"
        )
    cols = _all_columns(instance)
    best = None
    for size in range(instance.sigma + 1):
        for sup in itertools.combinations(range(instance.d), size):
            chosen = [cols[i] for i in sup]
            if instance.intercept is not None:
                chosen.append(instance.intercept)
            coeffs, res2 = least_squares(chosen, instance.b)
            key = (res2, sup)
            if best is None or key < best[0]:
                best = (key, coeffs)
    if best is None:
        raise InvariantError("the empty support is always tried")
    (res2, sup), coeffs = best
    x = [Fraction(0)] * instance.d
    for idx, v in zip(sup, coeffs):
        x[idx] = v
    mu = coeffs[-1] if instance.intercept is not None else None
    solution = make_solution(instance, x, mu, sup)
    if solution.objective != res2:
        raise InvariantError(
            f"objective {solution.objective} differs from the least-squares residual {res2}"
        )
    return solution


def brute_force_levels(
    instance: Instance,
    levels: Optional[int] = None,
    max_supports: int = 10**6,
) -> list[Solution]:
    """Brute-force optima for every budget 0..levels in one enumeration.

    Entry s is the best solution using at most s variables; the list is
    non-increasing in objective by construction.  levels defaults to d.
    """
    problems = validate(instance)
    if problems:
        raise ValueError("; ".join(problems))
    top = instance.d if levels is None else levels
    if top < 0:
        raise ValueError("levels must be non-negative")
    total = _support_count(instance.d, min(top, instance.d))
    if total > max_supports:
        raise BudgetExceededError(
            f"brute force over {total} supports exceeds the limit of {max_supports}"
        )
    cols = _all_columns(instance)
    best_by_size: list = [None] * (min(top, instance.d) + 1)
    for size in range(len(best_by_size)):
        for sup in itertools.combinations(range(instance.d), size):
            chosen = [cols[i] for i in sup]
            if instance.intercept is not None:
                chosen.append(instance.intercept)
            coeffs, res2 = least_squares(chosen, instance.b)
            key = (res2, sup)
            if best_by_size[size] is None or key < best_by_size[size][0]:
                best_by_size[size] = (key, coeffs)

    out: list[Solution] = []
    running = None
    for size in range(top + 1):
        if size < len(best_by_size) and best_by_size[size] is not None:
            if running is None or best_by_size[size][0] < running[0]:
                running = best_by_size[size]
        if running is None:
            raise InvariantError("every budget has at least the empty support")
        (res2, sup), coeffs = running
        x = [Fraction(0)] * instance.d
        for idx, v in zip(sup, coeffs):
            x[idx] = v
        mu = coeffs[-1] if instance.intercept is not None else None
        out.append(make_solution(instance, x, mu, sup))
    return out

