"""Brute-force reference solvers that certify the main pipeline at small scale.

Nothing here shares candidate generation with the solver module: brute
force enumerates every support directly and reuses only the exact least
squares.  One enumeration keeps the best support of each size;
brute_force reads one budget from it, brute_force_levels every budget.  Agreement between the two stacks is what the test
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

# Bounds the supports one enumeration may try.
MAX_SUPPORTS = 10**6


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


def _best_by_size(instance: Instance, top: int) -> list[tuple]:
    """Per size 0..min(top, d): the smallest (res2, support), with its coefficients.

    Validates first, and raises BudgetExceededError before enumerating
    when there are more than MAX_SUPPORTS supports of size at most top.
    """
    problems = validate(instance)
    if problems:
        raise ValueError("; ".join(problems))
    if top < 0:
        raise ValueError("levels must be non-negative")
    sizes = range(min(top, instance.d) + 1)
    total = sum(math.comb(instance.d, s) for s in sizes)
    if total > MAX_SUPPORTS:
        raise BudgetExceededError(
            f"brute force over {total} supports exceeds the limit of {MAX_SUPPORTS}"
        )
    cols = _all_columns(instance)
    table = []
    for size in sizes:
        best = None
        for sup in itertools.combinations(range(instance.d), size):
            chosen = [cols[i] for i in sup]
            if instance.intercept is not None:
                chosen.append(instance.intercept)
            coeffs, res2 = least_squares(chosen, instance.b)
            if best is None or (res2, sup) < best[:2]:
                best = (res2, sup, coeffs)
        table.append(best)
    return table


def _solution(
    instance: Instance, res2: Fraction, sup: tuple[int, ...], coeffs: list[Fraction]
) -> Solution:
    """The Solution of one enumerated support, checked against its residual."""
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


def brute_force(instance: Instance) -> Solution:
    """Exact optimum by enumerating every support of size at most sigma.

    The intercept column, when present, is appended free to every support.
    Ties prefer the lexicographically smallest support.  Raises
    BudgetExceededError before starting when the enumeration is too large.
    """
    table = _best_by_size(instance, instance.sigma)
    return _solution(instance, *min(table, key=lambda entry: entry[:2]))


def brute_force_levels(instance: Instance, levels: Optional[int] = None) -> list[Solution]:
    """Brute-force optima for every budget 0..levels in one enumeration.

    Entry s is the best solution using at most s variables, ties to the
    lexicographically smallest support; the list is non-increasing in
    objective by construction.  levels defaults to d.
    """
    top = instance.d if levels is None else levels
    table = _best_by_size(instance, top)
    out: list[Solution] = []
    running = table[0]
    for size in range(top + 1):
        if size < len(table) and table[size][:2] < running[:2]:
            running = table[size]
        out.append(_solution(instance, *running))
    return out
