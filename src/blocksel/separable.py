"""Separable allocation machinery for the fixed-parameter subproblems.

Once the free parameters are pinned, the subset-selection objective splits
across blocks: an allocation assigns each block a cardinality j_i and the
total cost is the sum of per-block values val(i; j_i).  This module contains
the exact solvers on such tables, a dynamic program and the incremental
chain that climbs one cardinality level at a time using bounded exchange
steps, together with the exchange set that the chain's steps come from.

The chain's step set is governed by the proximity radius theta_bar of the
block structure: moving from an optimal level-s allocation to some optimal
level-(s+1) allocation never requires removing more than theta_bar units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import BlockStructure


@dataclass(frozen=True)
class ValTable:
    """Per-block value rows: values[i][j] is the cost of cardinality j in block i."""

    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("table needs at least one block")
        if any(len(row) < 1 for row in self.values):
            raise ValueError("each block needs a cardinality-0 value")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction]]) -> "ValTable":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @property
    def h(self) -> int:
        return len(self.values)

    def structure(self) -> BlockStructure:
        return BlockStructure(self.h, tuple(len(row) - 1 for row in self.values))

    def total(self, allocation: Sequence[int]) -> Fraction:
        return sum(
            (self.values[i][j] for i, j in enumerate(allocation)), Fraction(0)
        )


@dataclass(frozen=True)
class DeltaExpr:
    """One exchange step: per-block cardinality moves with their cost delta.

    changes lists (block, j_from, j_to) for every block that moves, sorted by
    block index.  q is the total decrease; the total increase is q + 1.
    value is the exact cost difference.
    """

    changes: tuple[tuple[int, int, int], ...]
    q: int
    value: Fraction

    def __post_init__(self) -> None:
        inc = sum(t - f for _, f, t in self.changes if t > f)
        dec = sum(f - t for _, f, t in self.changes if t < f)
        if dec != self.q or inc != self.q + 1:
            raise ValueError("changes do not realize a (q, q+1) exchange")
        blocks = [blk for blk, _, _ in self.changes]
        if blocks != sorted(set(blocks)):
            raise ValueError("changes must be sorted by block and distinct")

def d_pattern_bound(structure: BlockStructure) -> int:
    """Upper bound on the number of distinct exchange patterns.

    Sums, over each allowed decrease q, the weak compositions of q+1 (the
    increases) and of q (the decreases) across the h blocks, times the
    per-block choices of starting cardinality for every changed unit.
    """
    h = structure.h
    theta = structure.theta
    total = 0
    for q in range(structure.theta_bar + 1):
        total += (
            math.comb(q + h, q + 1)
            * math.comb(q + h - 1, q)
            * theta ** (2 * q + 1)
        )
    return total


def aug_set(
    structure: BlockStructure,
    j_source: Sequence[int],
    q_max: Optional[int] = None,
) -> list[tuple[int, ...]]:
    """All next-level allocations reachable with decrease at most q_max.

    Generated by direct recursion over per-block target cardinalities, with
    partial sums pruned against the remaining capacity and the running
    decrease pruned against the bound.  Output is sorted lexicographically.
    """
    if len(j_source) != structure.h:
        raise ValueError("allocation length must match the structure")
    for i, j in enumerate(j_source):
        if j < 0 or j > structure.n_vec[i]:
            raise ValueError("source allocation out of range")
    bound = structure.theta_bar if q_max is None else q_max
    h = structure.h
    target_sum = sum(j_source) + 1
    # Remaining capacity after block i, for pruning partial sums.
    suffix = [0] * (h + 1)
    for i in range(h - 1, -1, -1):
        suffix[i] = suffix[i + 1] + structure.n_vec[i]
    out: list[tuple[int, ...]] = []
    chosen = [0] * h

    def recurse(i: int, total: int, dec: int) -> None:
        if i == h:
            out.append(tuple(chosen))
            return
        lo = max(0, target_sum - total - suffix[i + 1])
        hi = min(structure.n_vec[i], target_sum - total)
        for t in range(lo, hi + 1):
            ndec = dec + (j_source[i] - t if t < j_source[i] else 0)
            if ndec > bound:
                continue
            chosen[i] = t
            recurse(i + 1, total + t, ndec)

    recurse(0, 0, 0)
    return out


def _enumerate_patterns(structure: BlockStructure) -> list[tuple[tuple[int, int, int], ...]]:
    """All exchange patterns (block, j_from, j_to), by direct recursion."""
    bound = structure.theta_bar
    h = structure.h
    results: list[tuple[tuple[int, int, int], ...]] = []
    current: list[tuple[int, int, int]] = []

    def recurse(i: int, inc: int, dec: int) -> None:
        if i == h:
            if inc == dec + 1:
                results.append(tuple(current))
            return
        # Block i stays put...
        recurse(i + 1, inc, dec)
        n_i = structure.n_vec[i]
        # ...or moves from j_from to j_to (any feasible ordered pair).
        for j_from in range(n_i + 1):
            for j_to in range(n_i + 1):
                if j_to == j_from:
                    continue
                d = j_to - j_from
                ninc = inc + (d if d > 0 else 0)
                ndec = dec + (-d if d < 0 else 0)
                if ndec > bound or ninc > bound + 1:
                    continue
                current.append((i, j_from, j_to))
                recurse(i + 1, ninc, ndec)
                current.pop()

    recurse(0, 0, 0)
    results.sort()
    return results


def build_d(structure: BlockStructure, table: ValTable) -> list[DeltaExpr]:
    """The deduplicated exchange set D over all feasible source allocations.

    Entries dedup by (pattern, value), so distinct patterns survive.
    """
    out: list[DeltaExpr] = []
    seen: set = set()
    for changes in _enumerate_patterns(structure):
        q = sum(f - t for _, f, t in changes if t < f)
        val = sum(
            (table.values[i][t] - table.values[i][f] for i, f, t in changes),
            Fraction(0),
        )
        key = (changes, val)
        if key in seen:
            continue
        seen.add(key)
        out.append(DeltaExpr(changes, q, val))
    return out


def chain_solve(
    table: ValTable,
    sigma: int,
    return_trace: bool = False,
):
    """Climb from the zero allocation one level at a time.

    At each level every exchange step in the bounded-decrease neighbourhood
    is scored and the minimum is taken; ties break toward the
    lexicographically smallest target allocation.  Returns
    (allocation, objective) or, with return_trace, (allocation, objective,
    [levels 0..sigma]).
    """
    structure = table.structure()
    if sigma < 0 or sigma > structure.n_total:
        raise ValueError("sigma out of range for the table")
    values = table.values
    current = tuple(0 for _ in range(structure.h))
    trace = [current]
    for _ in range(sigma):
        best: Optional[tuple[int, ...]] = None
        best_key: object = None
        for target in aug_set(structure, current):
            val = Fraction(0)
            for i, (f, t) in enumerate(zip(current, target)):
                if f != t:
                    val += values[i][t] - values[i][f]
            k = (val, target)
            if best is None or k < best_key:
                best, best_key = target, k
        assert best is not None
        current = best
        trace.append(current)
    objective = table.total(current)
    if return_trace:
        return current, objective, trace
    return current, objective


def dp_solve(table: ValTable, sigma: int) -> tuple[tuple[int, ...], Fraction]:
    """Exact optimum over allocations summing to sigma, by dynamic programming.

    best(i, j) = min over t of best(i-1, j-t) + val(i, t).  Ties prefer the
    lexicographically smallest allocation.
    """
    structure = table.structure()
    if sigma < 0 or sigma > structure.n_total:
        raise ValueError("sigma out of range for the table")
    # best[j] = (value, allocation reversed-prefix) after each block.
    best: list[Optional[tuple[Fraction, tuple[int, ...]]]] = [None] * (sigma + 1)
    best[0] = (Fraction(0), ())
    for i in range(structure.h):
        row = table.values[i]
        nxt: list[Optional[tuple[Fraction, tuple[int, ...]]]] = [None] * (sigma + 1)
        for j in range(sigma + 1):
            if best[j] is None:
                continue
            base_val, base_alloc = best[j]
            for t in range(min(structure.n_vec[i], sigma - j) + 1):
                cand = (base_val + row[t], base_alloc + (t,))
                slot = nxt[j + t]
                if slot is None or cand < slot:
                    nxt[j + t] = cand
        best = nxt
    if best[sigma] is None:
        raise ValueError("no allocation reaches the requested level")
    value, alloc = best[sigma]
    return alloc, value
