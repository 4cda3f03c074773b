"""Exchange-set, chain and table machinery, kept as references.

These are former library helpers of blocksel.separable and, for
fixed_lambda_opt, blocksel.oracle, unchanged apart from their imports; no
solver path calls them.  The solver walks the chain symbolically with
solver.aug_set; tests check that walk, the diagonal solver and the
acceptance criteria against the numeric chain_solve, dp_solve,
fixed_lambda_opt, diag_greedy and the exchange set build_d.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from blocksel.model import BlockStructure, ReducedProblem
from blocksel.solver import aug_set
from reference_forms import eval_form, residual_quadratic


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


def fixed_lambda_opt(
    rp: ReducedProblem, lam: Sequence[Fraction]
) -> tuple[Fraction, tuple[int, ...]]:
    """Optimal value and support of a subproblem at pinned parameters.

    Builds the per-block table of best residuals per cardinality at lam and
    solves the allocation by dynamic programming.  Independent of the
    geometric candidate machinery, so it doubles as its referee.
    """
    if len(lam) != rp.k_prime:
        raise ValueError("lambda must have one entry per free column")
    offset = 0
    rows_values: list[tuple[Fraction, ...]] = []
    rows_supports: list[tuple[tuple[int, ...], ...]] = []
    for blk in rp.blocks:
        rows = range(offset, offset + blk.rows)
        b_piece = tuple(rp.b[r] for r in rows)
        lam_pieces = tuple(tuple(col[r] for r in rows) for col in rp.lambda_cols)
        values: list[Fraction] = []
        supports: list[tuple[int, ...]] = []
        for j in range(blk.cols + 1):
            best_val = None
            best_sup: tuple[int, ...] = ()
            for sup in itertools.combinations(range(blk.cols), j):
                form = residual_quadratic(blk, b_piece, lam_pieces, sup)
                val = eval_form(form, lam)
                if best_val is None or (val, sup) < (best_val, best_sup):
                    best_val, best_sup = val, sup
            assert best_val is not None
            values.append(best_val)
            supports.append(best_sup)
        rows_values.append(tuple(values))
        rows_supports.append(tuple(supports))
        offset += blk.rows
    table = ValTable(tuple(rows_values))
    level = min(rp.sigma_p, table.structure().n_total)
    alloc, value = dp_solve(table, level)
    support: list[int] = []
    col_offset = 0
    for i, blk in enumerate(rp.blocks):
        support.extend(col_offset + c for c in rows_supports[i][alloc[i]])
        col_offset += blk.cols
    return value, tuple(sorted(support))


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
