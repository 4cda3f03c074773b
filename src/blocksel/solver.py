"""Exact solvers for the reduced subproblems and for full instances.

reduce() expands an instance into one subproblem per admissible subset of
coupling columns; the chosen columns' coefficients become free parameters
lambda and the remaining budget sigma' applies to the block variables.
For fixed lambda the objective separates across blocks, so everything
hinges on which support wins each (block, cardinality) slot as lambda
moves.  Those comparisons are quadratic in lambda; the solver covers all
their sign regions with rational witness points, reads off the winning
supports at each witness, and forms candidate supports as unions over
the cardinality allocations that fit the budget sigma'.  finish() then
minimizes each candidate's residual over lambda in closed form and keeps
the best.

Each support's residual is held as one integer row over (1, lambda,
lambda_i lambda_j), all rows of a subproblem at one positive scale, read
off one table per instance (linalg.residual_quadratic, over every free
column); comparisons read these rows, and a candidate's residual is the
integer sum of its blocks' rows, which its generator forms with it.
finish() minimizes each such row by linalg.quadratic_minimum as an
integer ratio, compares these ratios by cross-multiplication and builds
Fractions only for the winner: its value, its lambda
(linalg.quadratic_minimizer) and its block coefficients
(linalg.least_squares).

solve_block() is the one pipeline of a subproblem: route() names one of
four candidate generators from the subproblem's structure alone, called
with the subproblem's context and the level min(sigma', n).  Each returns
(supports, candidates, regions): the supports it found, the ones finish()
scores, with their rows, and its region count.  The generators trust
route() and do not check its rule themselves:

* diagonal (solve_diagonal): all blocks 1x1 and at most two free
  parameters.  The optimal support is the top sigma' coordinates by
  |b'(lambda)|, so the candidates are the top sets over the regions of
  a line arrangement in the plane, read in integers: one kinetic sweep
  along lambda_2 = 0, the whole walk at k' <= 1, and at k' = 2 a walk of
  each tie class of a line (coordinates of equal |b'| along it) against
  the lines through its least member, recording a set only where the
  sigma'-level cuts the class.
* dp (_dp_candidate): every other subproblem without free parameters,
  solved by an integer DP over (block, columns used), whose one table
  holds every level's optimum.
* cover (_cover_pool): every other subproblem with one or two free
  parameters.  Argmin profiles are read at the witnesses of one conic
  cover of the plane.  The pool of unions of their winners grows by
  support size, each union scored once when it is built, and keeps the
  best support over each size and below, which alone goes to finish();
  the allocation work is bounded by MAX_PROFILE_UNIONS.
* extended (_extended_candidates): three or more free parameters.  The
  comparisons are linear over the coordinates (lambda, pairwise products
  of lambda), and the space is split exactly into support regions, where
  every (block, cardinality) slot has one winner, by the argmin of each
  slot's integer rows; each support region is then split into the
  regions where the incremental allocation chain makes the same choices,
  found by walking the chain as a tree with the same argmin step.  A
  chain step goes to one of the next-level allocations of aug_set, which
  remove at most theta_bar units: by the proximity radius theta_bar of
  the block structure, some optimal allocation one level up is always
  that close.  Both region counts are bounded by MAX_CELLS.  It has no
  parameter-count limit; the tests also force it onto subproblems with at
  most two free parameters as a cross-check.

With fewer than two free parameters, diagonal and cover still read lambda
space as the plane, with zero coefficients on the missing parameters.

Everything that does not depend on sigma' lives in one context per
subproblem, held in a cache of MAX_CONTEXTS entries keyed on the
subproblem's data as integers, so that a sigma sweep over the same data
reuses it; the form table is filled only on a miss.  Per level a context
keeps: on cover, the supports of that size and the best support up to it
(rows and profile masks only for the theta largest sizes built, which the
next size extends); on dp, the optimum within that many columns.  A level
at or below the largest one built is a lookup.  On every path the context
also keeps each rebuilt winner by support.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import AbstractSet, Sequence

from .arrangement import argmin_regions
from .cover import conic_cover_points, primitive
from .linalg import (
    extended_dim,
    least_squares,
    quadratic_minimizer,
    quadratic_minimum,
    residual_quadratic,
)
from .model import (
    BlockStructure,
    BudgetExceededError,
    Instance,
    InvariantError,
    ReducedProblem,
    Solution,
    make_solution,
    offsets,
    validate,
)

# Bounds the extended path's support regions and its chain regions.
MAX_CELLS = 200000
# Bounds the cover path's pool work at one and two free parameters:
# in-budget allocations times distinct argmin profiles.
MAX_PROFILE_UNIONS = 1000000
# Subproblem contexts kept for reuse across solves; the least recently used
# is dropped first.
MAX_CONTEXTS = 64

CandidateSet = set[tuple[int, ...]]
# Each candidate support with its summed residual row.
CandidateRows = dict[tuple[int, ...], tuple[int, ...]]
# A generator's supports, candidates for finish() and region count.
Generated = tuple[AbstractSet[tuple[int, ...]], CandidateRows, int]


@dataclass(frozen=True)
class RpSolution:
    """Optimum of one reduced subproblem.

    x covers the block variables only; lam holds the free coefficients in
    tag order (intercept first when present).  support lists the chosen
    block variables, sorted.
    """

    x: tuple[Fraction, ...]
    lam: tuple[Fraction, ...]
    objective: Fraction
    support: tuple[int, ...]


def reduce(instance: Instance) -> list[ReducedProblem]:
    """All separable subproblems of an instance.

    One per subset L of coupling columns with |L| <= sigma: the lambda
    columns are the intercept (when present) followed by the columns of L,
    and the block budget drops to sigma - |L|.  Ordered by subset size,
    then lexicographically, so the empty subset comes first.  They share
    one _FormTable over the intercept and, unless sigma is 0 and none is
    pinned, every coupling column.
    """
    lead = () if instance.intercept is None else (instance.intercept,)
    mu = ("mu",) * len(lead)
    free = instance.coupling if instance.sigma else ()
    table = _FormTable(instance.blocks, instance.b, (*lead, *free), mu + tuple(range(len(free))))
    problems: list[ReducedProblem] = []
    for size in range(min(instance.k, instance.sigma) + 1):
        for combo in itertools.combinations(range(instance.k), size):
            problems.append(
                ReducedProblem(
                    blocks=instance.blocks,
                    b=instance.b,
                    lambda_cols=lead + tuple(map(instance.coupling.__getitem__, combo)),
                    tags=mu + combo,
                    sigma_p=instance.sigma - size,
                    forms=table,
                )
            )
    return problems


# --- per-subproblem context -------------------------------------------------
#
# One bounded cache holds a context per subproblem's data, whatever its
# budget; each lookup builds one key of integers, and every helper then
# works on the context's own tables.


class _FormTable:
    """Every block's residual rows over all free columns of one instance.

    reduce() shares one among an instance's subproblems, and the first
    context built from it fills it: pieces[i] is block i's (piece of b,
    pieces of each column), and rows[i] its residual_quadratic table.  A
    subproblem finds each of its columns by its tag.
    """

    def __init__(self, blocks, b, columns, tags) -> None:
        self.blocks, self.b, self.columns, self.tags = blocks, b, columns, tags
        self.pieces = self.rows = None

    def filled(self) -> _FormTable:
        if self.rows is None:
            bounds = offsets(blk.rows for blk in self.blocks)
            self.pieces = [
                (tuple(self.b[lo:hi]), tuple(tuple(col[lo:hi]) for col in self.columns))
                for lo, hi in zip(bounds, bounds[1:])
            ]
            self.rows = [
                residual_quadratic(blk, *pair) for blk, pair in zip(self.blocks, self.pieces)
            ]
        return self


@dataclass
class _Pool:
    """The cover pool of one context, grown by support size.

    supports[s] lists the supports of size s, and best[s] is the smallest
    (num, den, support, row) over the supports of size at most s, in
    finish()'s order.  frontier holds the nodes (next block, support, row,
    profile mask) of the theta largest sizes built that have a later
    block, the only ones an extension reads.  branches[i][j - 1] lists
    (shifted winner, row change, profile mask) per distinct winner of
    block i at size j, and allocations[s] counts the cardinality
    allocations of at most s columns.
    """

    witnesses: int
    profiles: int
    allocations: tuple[int, ...]
    branches: list
    supports: list = field(default_factory=list)
    best: list = field(default_factory=list)
    frontier: list = field(default_factory=list)


@dataclass
class _Context:
    """Sigma-independent data of one subproblem, shared by every budget.

    The residual rows and the column offsets are built up front.  The
    cover pool and the DP table are filled in by the first solve on their
    path and extended by later ones; values caches the minima finish()
    scores, and solutions each rebuilt winner by support.  Entry
    rows[i][j] lists (support, row) for block i, size j, row_of[i] maps
    each support of block i to its row, and empty is the empty support's
    row.  Every row shares the positive scale: a support's residual at
    lam is row . (1, lam, lam_i lam_j) / scale.
    """

    base: ReducedProblem
    pieces: tuple
    rows: tuple
    row_of: tuple[dict, ...]
    scale: int
    offsets: tuple[int, ...]
    empty: tuple[int, ...]
    values: dict = field(default_factory=dict)
    solutions: dict = field(default_factory=dict)
    pool: _Pool | None = None
    dp: list | None = None


_CONTEXTS: OrderedDict[tuple, _Context] = OrderedDict()


def _context(rp: ReducedProblem) -> _Context:
    """The context of a subproblem's data, whatever its budget.

    The key is the data as integer pairs: the blocks' widths and entries,
    b and the lambda columns.  A hit moves to the end of the cache and
    reads nothing else; a miss builds the context, filling rp's form table
    if it is empty.  Past MAX_CONTEXTS entries the least recently used one
    is dropped.
    """
    key = (
        tuple((blk.cols, *(v.as_integer_ratio() for v in blk.entries)) for blk in rp.blocks),
        tuple(v.as_integer_ratio() for v in rp.b),
        tuple(tuple(v.as_integer_ratio() for v in col) for col in rp.lambda_cols),
    )
    ctx = _CONTEXTS.pop(key, None) or _new_context(replace(rp, sigma_p=0))
    _CONTEXTS[key] = ctx
    if len(_CONTEXTS) > MAX_CONTEXTS:
        _CONTEXTS.popitem(last=False)
    return ctx


def _new_context(base: ReducedProblem) -> _Context:
    """The context of a budget-stripped subproblem.

    Its rows and pieces are read off base's form table (or a table over
    its own columns) at the positions of base's tags.  The rows are
    brought to the lcm of the scales and divided by the gcd of that common
    scale and all their entries, so they share one integer scale: the
    least that makes every form integral, whichever table they came from.
    """
    table = (base.forms or _FormTable(base.blocks, base.b, base.lambda_cols, base.tags)).filled()
    at = [table.tags.index(tag) for tag in base.tags]
    f = len(table.columns)
    # Where each monomial of base's parameters sits in a row over all f.
    square = itertools.combinations_with_replacement(range(f), 2)
    spot = {pair: 1 + f + n for n, pair in enumerate(square)}
    picks = [0, *(1 + p for p in at), *(spot[p, q] for n, p in enumerate(at) for q in at[n:])]
    raw = [
        [
            [(sup, [row[p] for p in picks], scale) for sup, (row, scale) in slot]
            for _, slot in itertools.groupby(by_support.items(), lambda item: len(item[0]))
        ]
        for by_support in table.rows
    ]
    flat = [entry for per_size in raw for slot in per_size for entry in slot]
    common = math.lcm(*(scale for _, _, scale in flat))
    g = math.gcd(
        common, *(v * (common // scale) for _, row, scale in flat for v in row)
    )
    rows = tuple(
        tuple(
            tuple(
                (sup, tuple(v * (common // scale) // g for v in row))
                for sup, row, scale in slot
            )
            for slot in per_size
        )
        for per_size in raw
    )
    row_of = tuple(
        dict(pair for slot in per_size for pair in slot) for per_size in rows
    )
    empty = tuple(map(sum, zip(*(per_size[0][0][1] for per_size in rows))))
    pieces = tuple(
        (b_piece, tuple(col_pieces[p] for p in at)) for b_piece, col_pieces in table.pieces
    )
    cols = offsets(blk.cols for blk in base.blocks)
    return _Context(replace(base, forms=None), pieces, rows, row_of, common // g, cols, empty)


def _plane_conic(row: Sequence[int], k: int) -> tuple[int, ...]:
    """The (a, b, c, d, e, f) of a row in k <= 2 parameters, in the plane."""
    if k == 2:
        const, l1, l2, l11, l12, l22 = row
        return (l11, l12, l22, l1, l2, const)
    const, l1, l11 = (*row, 0, 0)[:3]
    return (l11, 0, 0, l1, 0, const)


def _cover_witnesses(rows, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rational lambda points, one per sign condition of the differences.

    The differences of same-cardinality rows are read in the plane, so one
    conic cover serves every k <= 2; a region of the plane is a region of
    lambda space times the missing coordinates, so the points cut back to
    k coordinates still realize every sign condition.  Below two
    parameters no member involves lambda_2, so the cover gives at most one
    point per strip and the cut points stay distinct.  Without parameters
    every difference is a constant, which never vanishes, so the cover's
    one point, the origin, cuts down to the empty witness.
    """
    conics = (
        _plane_conic(tuple(map(operator.sub, r1, r2)), k)
        for per_size in rows
        for slot in per_size
        for (_, r1), (_, r2) in itertools.combinations(slot, 2)
    )
    return tuple(point[:k] for point in conic_cover_points(conics))


def _argmins_at(rows, witness: Sequence[Fraction]) -> tuple:
    """Winning support per (block, cardinality) at a lambda point.

    With den the witness's common denominator and c = den * witness, each
    support's residual times den^2 (and the common scale of the rows) is
    the dot product of its row with the monomials den^2, den c_i and
    c_i c_j.  The witness never lies on a nonzero difference surface, so
    ties happen only between supports with identical rows; those break to the
    lexicographically smallest support.  A slot of one support skips them.
    """
    den = math.lcm(*(x.denominator for x in witness))
    coords = [x.numerator * (den // x.denominator) for x in witness]
    monomials = [den * den, *(den * c for c in coords)]
    for i, ci in enumerate(coords):
        monomials.extend(ci * cj for cj in coords[i:])
    return tuple(
        tuple(
            slot[0][0] if len(slot) == 1
            else min((sum(map(operator.mul, row, monomials)), sup) for sup, row in slot)[1]
            for slot in per_size
        )
        for per_size in rows
    )


def _allocation_counts(widths: Sequence[int]) -> tuple[int, ...]:
    """Cardinality allocations (j_i <= widths[i]) of at most s columns, per s."""
    counts = [1] + [0] * sum(widths)  # counts[s]: partial allocations summing to s
    for width in widths:
        counts = [
            sum(counts[s - j] for j in range(min(width, s) + 1))
            for s in range(len(counts))
        ]
    return tuple(itertools.accumulate(counts))


def _new_pool(ctx: _Context) -> _Pool:
    """The cover pool's tables, before any size is built.

    A sign condition of the differences fixes every slot's winner, so the
    distinct argmin profiles are read at the cover witnesses, one per sign
    condition.  The branches of block i at size j are the distinct winners
    of that slot over the profiles, each with the mask of the profiles it
    wins in and its row less the block's empty row.
    """
    witnesses = _cover_witnesses(ctx.rows, ctx.base.k_prime)
    profiles = tuple({_argmins_at(ctx.rows, w) for w in witnesses})
    branches = []
    for i, (offset, row_of) in enumerate(zip(ctx.offsets, ctx.row_of)):
        per_size, empty = [], row_of[()]
        for j in range(1, ctx.base.blocks[i].cols + 1):
            masks: dict[tuple[int, ...], int] = {}
            for p, table in enumerate(profiles):
                masks[table[i][j]] = masks.get(table[i][j], 0) | 1 << p
            winners = []
            for sup, mask in masks.items():
                change = tuple(map(operator.sub, row_of[sup], empty))
                winners.append((tuple(offset + c for c in sup), change, mask))
            per_size.append(winners)
        branches.append(per_size)
    widths = [blk.cols for blk in ctx.base.blocks]
    return _Pool(len(witnesses), len(profiles), _allocation_counts(widths), branches)


def _cover_pool(ctx: _Context, limit: int) -> Generated:
    """The union supports of at most limit columns, their best, the witnesses.

    A profile fixes one winner per (block, cardinality) slot; every
    allocation of at most limit columns contributes the union of its
    blocks' winners.  The pool is grown to limit by _grow_pool, so a lower
    limit is a lookup.  Returns a copy of the supports, which later growth
    leaves unchanged, the best one with its row, whose minimum goes to the
    context's values, where finish() reads it, and the cover's witness
    count.
    """
    pool = ctx.pool
    if pool is None:
        pool = ctx.pool = _new_pool(ctx)
    allocations = pool.allocations[limit]
    if allocations * pool.profiles > MAX_PROFILE_UNIONS:
        raise BudgetExceededError(
            f"profile union enumeration needs {allocations} allocations of at "
            f"most {limit} columns for each of {pool.profiles} argmin tables, "
            f"over the limit of {MAX_PROFILE_UNIONS}"
        )
    _grow_pool(ctx, pool, limit)
    num, den, chi, row = pool.best[limit]
    ctx.values[chi] = (num, den)
    supports = frozenset(itertools.chain.from_iterable(pool.supports[: limit + 1]))
    return supports, {chi: row}, pool.witnesses


def _grow_pool(ctx: _Context, pool: _Pool, limit: int) -> None:
    """Build the pool's sizes past the largest built, up to limit.

    The one node of size 0 is the empty support under every profile.  A
    node of size s is a node of size s - j followed by a winner of size j
    of a later block whose profile mask meets the node's, so blocks come
    in increasing order, supports come out sorted, each distinct union is
    built once, and its row is its parent's plus the winner's row change.
    Each node is scored by quadratic_minimum once, when it is built.
    """
    k, scale, h = ctx.base.k_prime, ctx.scale, len(pool.branches)
    theta = max(blk.cols for blk in ctx.base.blocks)
    for size in range(len(pool.best), limit + 1):
        nodes = [] if size else [(0, (), ctx.empty, (1 << pool.profiles) - 1)]
        for j, parents in enumerate(reversed(pool.frontier), 1):
            for start, prefix, row, mask in parents:
                for i in range(start, h):
                    if j <= len(pool.branches[i]):
                        for sup, change, bits in pool.branches[i][j - 1]:
                            if mask & bits:
                                total = tuple(map(operator.add, row, change))
                                nodes.append((i + 1, prefix + sup, total, mask & bits))
        best = pool.best[-1] if size else None
        for _, chi, row, _ in nodes:
            num, den = quadratic_minimum(row, k, scale)
            if best is None or _precedes(num, den, chi, best):
                best = (num, den, chi, row)
        pool.supports.append([chi for _, chi, _, _ in nodes])
        pool.best.append(best)
        extensible = [node for node in nodes if node[0] < h]
        pool.frontier = [*pool.frontier, extensible][-theta:]


def _precedes(num: int, den: int, chi: tuple[int, ...], best: tuple) -> bool:
    """finish()'s order: does num / den at support chi come before best?

    best starts with (num, den, support).  The smaller minimum wins, by
    cross-multiplication, and a tie goes to the lexicographically smaller
    support.
    """
    return (num * best[1], chi) < (best[0] * den, best[2])


def _candidate_value(
    ctx: _Context, chi: tuple[int, ...], row: tuple[int, ...]
) -> tuple[int, int]:
    """Exact minimum over lambda of one candidate's summed row, computed once.

    It is the integer pair (numerator, denominator) in lowest terms from
    quadratic_minimum, at the context's scale.
    """
    hit = ctx.values.get(chi)
    if hit is None:
        hit = ctx.values[chi] = quadratic_minimum(row, ctx.base.k_prime, ctx.scale)
    return hit


def finish(candidates: CandidateRows, rp: ReducedProblem, ctx: _Context) -> RpSolution:
    """Best subproblem solution over the candidate supports.

    ctx is the context of rp.  candidates maps each sorted support to its
    summed residual row, minimized over lambda in closed form, as an
    integer ratio; the minima are compared by cross-multiplication, and the
    empty support always participates.  Ties prefer the lexicographically
    smallest support.  Only the winner gets Fractions: its value, its
    lambda, and its block coefficients, rebuilt by per-block least squares
    at that lambda from the blocks' columns and b.  The rebuilt winner is
    kept in the context by support, so a later budget with the same winner
    reuses it.
    """
    if any(len(chi) > rp.sigma_p for chi in candidates):
        raise InvariantError("candidate support exceeds the subproblem budget")
    best = (*_candidate_value(ctx, (), ctx.empty), (), ctx.empty)
    for chi, row in candidates.items():
        num, den = _candidate_value(ctx, chi, row)
        if _precedes(num, den, chi, best):
            best = (num, den, chi, row)
    num, den, chi, row = best
    kept = ctx.solutions.get(chi)
    if kept is not None:
        return kept
    value = Fraction(num, den)
    best_lam = quadratic_minimizer(row, rp.k_prime)

    starts = ctx.offsets
    x = [Fraction(0)] * rp.n_total
    rebuilt = Fraction(0)
    for i, blk in enumerate(rp.blocks):
        local = [c - starts[i] for c in chi if starts[i] <= c < starts[i + 1]]
        b_piece, lam_pieces = ctx.pieces[i]
        target = list(b_piece)
        for coeff, piece in zip(best_lam, lam_pieces):
            if coeff:
                for r in range(len(target)):
                    target[r] -= coeff * piece[r]
        coeffs, res2 = least_squares([blk.column(c) for c in local], target)
        for c, v in zip(local, coeffs):
            x[starts[i] + c] = v
        rebuilt += res2
    if rebuilt != value:
        raise InvariantError(
            f"rebuilt residual {rebuilt} differs from the closed-form value {value}"
        )
    sol = ctx.solutions[chi] = RpSolution(tuple(x), best_lam, value, chi)
    return sol


# --- diagonal specialization ------------------------------------------------


def solve_diagonal(ctx: _Context, top: int) -> Generated:
    """Top sets of the hittable coordinates over the regions of lambda space.

    With all blocks 1x1, at any lambda the optimal support is the top
    coordinates by |b'(lambda)|, restricted to nonzero diagonal entries:
    each inclusion removes that coordinate's squared residual.  Coordinates
    rank by |b'(lambda)|^2, descending, index ascending, and a top set holds
    the first min(top, hittable) of them, one per region.  At top 0, or at
    a top that takes every hittable coordinate, that set is the same in
    every region, so nothing is walked; otherwise see _walk_top_sets.  Each
    set comes with its row, the empty row plus its coordinates' changes.
    """
    hittable = [i for i, blk in enumerate(ctx.base.blocks) if blk.at(0, 0) != 0]
    if top == 0 or top >= len(hittable):
        top_sets = {tuple(hittable[:top])}
    else:
        top_sets = _walk_top_sets(ctx, hittable, top)
    changes = [tuple(map(operator.sub, row_of[(0,)], row_of[()])) for row_of in ctx.row_of]
    candidates = {
        chi: tuple(map(sum, zip(ctx.empty, *(changes[i] for i in chi))))
        for chi in top_sets
    }
    return candidates.keys(), candidates, len(candidates)


def _walk_top_sets(ctx: _Context, hittable: list[int], top: int) -> CandidateSet:
    """Top sets over the regions of the plane: one sweep, then the class walks.

    Rankings change only across the pairwise difference and sum lines of
    the hittable b' functionals (zero coefficients on missing parameters
    make lambda space the plane); the pairs a merged line carries split
    its coordinates into tie classes, equal in |b'| along it.  The sweep
    reads each region it passes: every region when all lines are
    lambda_1 = c, as at k' <= 1.  Otherwise, unless the top set is the
    same everywhere, each region's changes across an edge of its boundary,
    where the level cuts one class of the edge's line; each class is
    walked against the lines that carry its least member q, since a
    coordinate outside it ties the class exactly where it ties q.
    """
    k = ctx.base.k_prime
    # b'_i(lambda) = b_i - sum_l lambda_l col_l[i] as (p, q, r) for
    # p lambda_1 + q lambda_2 + r, all scaled by one positive integer, which
    # keeps every comparison of squared values.
    funcs = [
        (*(-piece[0] for piece in lam_pieces), *(Fraction(0),) * (2 - k), b_piece[0])
        for b_piece, lam_pieces in ctx.pieces
    ]
    scale = math.lcm(*(v.denominator for f in funcs for v in f))
    int_funcs = [tuple(int(v * scale) for v in f) for f in funcs]
    pairs: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, j in itertools.combinations(hittable, 2):
        (p1, q1, r1), (p2, q2, r2) = int_funcs[i], int_funcs[j]
        for s in (1, -1):
            if p1 + s * p2 or q1 + s * q2:
                line = primitive((p1 + s * p2, q1 + s * q2, r1 + s * r2))
                pairs.setdefault(line, []).append((i, j))
    top_sets = _sweep_top_sets(pairs, int_funcs, hittable, top)
    if not any(b for _, b, _ in pairs):
        return top_sets
    # classes[line] maps each coordinate the line carries to its tie class;
    # carrying[i] lists the lines that carry coordinate i.
    classes: dict[tuple[int, ...], dict[int, frozenset[int]]] = {}
    carrying: dict[int, list[tuple[int, ...]]] = {}
    for line, carried in pairs.items():
        class_of = classes[line] = {}
        for i, j in carried:
            merged = class_of.get(i, frozenset((i,))) | class_of.get(j, frozenset((j,)))
            class_of.update(dict.fromkeys(merged, merged))
        for i in class_of:
            carrying.setdefault(i, []).append(line)
    for line, class_of in classes.items():
        for members in set(class_of.values()):
            q = min(members)
            crossing = ((other, classes[other][q]) for other in carrying[q])
            top_sets.update(_class_top_sets(line, members, crossing, int_funcs, hittable, top))
    return top_sets


def _line_anchors(line, crossing, int_funcs, hittable):
    """Values along one line, its first anchor and its crossings.

    The line a x + b y + c = 0 is walked as P(t) = base + t (-b, a); each
    (line, coordinates) pair of crossing cuts it at t = n / d, 0 < |d| <= D,
    unless parallel (d = 0).  With M = 2 D^2 the integer key floor(n M / d)
    orders the crossings and parts distinct ones by at least 2, so the edge
    after key K is read at (K + 1) / M and the first at (K_0 - 1) / M.
    Returns rows, the first anchor's numerator and the sorted (key,
    coordinates) of the crossings, merged over lines through one point.
    For hittable i, rows[i] = (A, B, s): f_i(P(u / M)) |g| M = A + B u, g
    the base's denominator, and s is the slope f_i . (a, b) along the
    normal; one positive factor per point keeps every comparison.  Lines
    and functionals are integer triples (a, b, c) of a x + b y + c.
    """
    a, b, c = line
    x0, y0, g = (0, -c, b) if b != 0 else (-c, 0, a)  # base (x0, y0) / g
    sign, mag = (1, g) if g > 0 else (-1, -g)
    hits = []
    most = 0
    for (a2, b2, c2), carried in crossing:
        d = g * (a * b2 - b * a2)
        if d:
            hits.append((-a2 * x0 - b2 * y0 - c2 * g, d, carried))
            if d * d > most:
                most = d * d
    w = 2 * most or 1
    swaps: dict[int, set[int]] = {}
    for n, d, carried in hits:
        swaps.setdefault(n * w // d, set()).update(carried)
    rows = {}
    for i in hittable:
        p, q, r = int_funcs[i]
        rows[i] = (sign * (p * x0 + q * y0 + r * g) * w, (q * a - p * b) * mag, p * a + q * b)
    return rows, min(swaps, default=1) - 1, sorted(swaps.items())


def _ranked(rows, coords, u, side) -> list[int]:
    """coords by descending |b'| just off the line at anchor u, on one side.

    Along the normal n = (a, b), a functional with value v at the anchor
    and slope s has square v^2 + 2 e v s + e^2 s^2 at offset e n, so for
    small e > 0 the ranking on side +1 compares (v^2, v s, s^2)
    lexicographically and on side -1 (v^2, -v s, s^2), index ascending
    last.  Keys sort ascending, so every component of the descending
    comparison is negated.
    """
    keys = []
    for i in coords:
        big_a, big_b, s = rows[i]
        v = big_a + big_b * u
        keys.append((-v * v, -side * v * s, -s * s, i))
    return [key[3] for key in sorted(keys)]


def _sweep_top_sets(pairs, int_funcs, hittable, top) -> CandidateSet:
    """Top sets of the regions along lambda_2 = 0, just off it on its + side.

    The transversal is walked against every line that crosses it (see
    _line_anchors) from one full ranking at the first anchor.  Two
    coordinates swap only where they tie, on their pair's line, or, when
    that is the transversal, where both vanish, on the pair's other line;
    so each crossing ranks again only its lines' coordinates, in the slots
    they hold, and the top set changes only where those straddle the level.
    """
    crossing = ((line, itertools.chain(*carried)) for line, carried in pairs.items())
    rows, u, swaps = _line_anchors((0, 1, 0), crossing, int_funcs, hittable)
    slot = {i: s for s, i in enumerate(_ranked(rows, hittable, u, 1))}
    out = {tuple(i for i in hittable if slot[i] < top)}
    for key, coords in swaps:
        slots = sorted(slot[i] for i in coords)
        slot.update(zip(_ranked(rows, coords, key + 1, 1), slots))
        if slots[0] < top <= slots[-1]:
            out.add(tuple(i for i in hittable if slot[i] < top))
    return out


def _class_top_sets(line, members, crossing, int_funcs, hittable, top) -> CandidateSet:
    """Top sets on both sides of one line where the level cuts a tie class.

    members is a tie class of the line, and crossing pairs each line that
    carries its least member q with q's tie class along it.  A coordinate
    outside the class stays above or below it along the line except where
    it ties q, where such a line crosses, and members tie q all along it;
    so the set above is compared once at the first anchor and afterwards,
    past each crossing, only among its coordinates.  The members' own
    order just off the line changes only where they vanish: all along it,
    or where the other line of q's pair with a member crosses.  With
    n = top - |above|, an edge where 0 < n < |members| reads, on each
    side, above and the best n members.
    """
    rows, u, swaps = _line_anchors(line, crossing, int_funcs, hittable)
    big_a, big_b, _ = rows[min(members)]
    above: set[int] = set()
    out: CandidateSet = set()
    for u, coords in [(u, hittable), *((key + 1, coords) for key, coords in swaps)]:
        level = abs(big_a + big_b * u)
        for i in coords:
            a_i, b_i, _ = rows[i]
            if abs(a_i + b_i * u) > level:
                above.add(i)
            else:
                above.discard(i)
        n = top - len(above)
        if 0 < n < len(members):
            for side in (1, -1):
                out.add(tuple(sorted(above.union(_ranked(rows, members, u, side)[:n]))))
    return out


# --- general blocks ---------------------------------------------------------


def _support_regions(ctx: _Context) -> list:
    """Open regions of extended space on which every slot has one winner.

    The residual comparisons are quadratic in lambda but linear over the
    extended coordinates (lambda, then pairwise products).  Each
    (block, cardinality) slot labels each row with its support, so equal
    rows keep the lexicographically smallest; starting from the whole
    space, every region is split by argmin_regions over the slot's rows,
    so a slot whose rows are all equal splits nothing.  Returns
    (constraints, witness, selections) per region, selections[i][j] being
    the winning support of block i at size j.  Regions count against
    MAX_CELLS as they grow.
    """
    regions = [([], (Fraction(0),) * extended_dim(ctx.base.k_prime), ())]
    for per_size in ctx.rows:
        for slot in per_size:
            regions = [
                (region, point, picks + (sup,))
                for constraints, witness, picks in regions
                for sup, region, point in argmin_regions(slot, constraints, witness)
            ]
            if len(regions) > MAX_CELLS:
                raise BudgetExceededError(
                    f"support regions reached {len(regions)}, over the budget "
                    f"of {MAX_CELLS}"
                )
    out = []
    for constraints, witness, picks in regions:
        it = iter(picks)
        selections = tuple(tuple(next(it) for _ in rows) for rows in ctx.rows)
        out.append((constraints, witness, selections))
    return out


def aug_set(
    structure: BlockStructure,
    j_source: Sequence[int],
) -> list[tuple[int, ...]]:
    """All next-level allocations reachable with decrease at most theta_bar.

    Generated by direct recursion over per-block target cardinalities, with
    partial sums pruned against the remaining capacity and the running
    decrease pruned against the bound.  Output is sorted lexicographically.
    """
    if len(j_source) != structure.h:
        raise ValueError("allocation length must match the structure")
    for i, j in enumerate(j_source):
        if j < 0 or j > structure.n_vec[i]:
            raise ValueError("source allocation out of range")
    bound = structure.theta_bar
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


def _chain_steps(
    structure: BlockStructure, slots: Sequence[Sequence[tuple[int, ...]]], alloc
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The chain's step rule from alloc, as (target, total row) pairs.

    slots[i][j] is the row of block i at size j, and an allocation's total
    is the sum of its blocks' rows.  The incremental chain steps to the
    aug_set target with the smallest total, ties to the lexicographically
    smallest target; a step's exchange value is the target's total less
    the source's, so targets compare by total.  The pairs come in aug_set's
    lexicographic order, so their argmin, equal rows keeping the first
    label as in argmin_regions, is that step.
    """
    return [
        (target, tuple(map(sum, zip(*(row[j] for row, j in zip(slots, target))))))
        for target in aug_set(structure, alloc)
    ]


def _extended_candidates(ctx: _Context, level: int) -> Generated:
    """Candidates and chain-region count from the extended-space regions.

    In each support region the winning supports fix an integer row per
    (block, cardinality) slot.  The incremental chain climbs from the zero
    allocation to level by _chain_steps.  It is walked as a tree whose
    node is an open region, a witness in it and the allocation reached; its
    children are the targets whose totals are strictly smallest somewhere
    in the region.  The leaves fill the support region up to finitely many
    hyperplanes, the chain's outcome is constant on each, and each
    contributes its support with the chain's total row.  Leaves count
    against MAX_CELLS.
    """
    structure = ctx.base.structure()
    regions = 0
    candidates: CandidateRows = {}
    for root, start, selections in _support_regions(ctx):
        slots = [
            [ctx.row_of[i][sup] for sup in per_size]
            for i, per_size in enumerate(selections)
        ]
        stack = [(root, start, (0,) * len(slots), ctx.empty)]
        while stack:
            region, witness, alloc, total = stack.pop()
            if sum(alloc) == level:
                regions += 1
                if regions > MAX_CELLS:
                    raise BudgetExceededError(
                        f"chain regions reached {regions}, over the budget of "
                        f"{MAX_CELLS}"
                    )
                chi: list[int] = []
                for i, j in enumerate(alloc):
                    chi.extend(ctx.offsets[i] + c for c in selections[i][j])
                candidates[tuple(chi)] = total
                continue
            steps = _chain_steps(structure, slots, alloc)
            totals = dict(steps)
            stack.extend(
                (child, point, target, totals[target])
                for target, child, point in argmin_regions(steps, region, witness)
            )
    return candidates.keys(), candidates, regions


def _dp_candidate(ctx: _Context, level: int) -> Generated:
    """The one optimum of a subproblem without free parameters, with its row.

    Every row is a constant, so each slot has one smallest (value, support)
    and an integer DP over (block, columns used) combines them.  It runs
    once per context, to every column, from the last block backwards:
    best[c] is the smallest (value, support) of the later blocks within c
    columns, their shifted supports concatenated, so ties go to the
    smallest sorted support, as in finish().  Each level reads its entry.
    """
    if ctx.dp is None:
        best = [(0, ())] * (ctx.offsets[-1] + 1)
        for i in reversed(range(len(ctx.rows))):
            picks = [
                min((row[0], tuple(ctx.offsets[i] + c for c in sup)) for sup, row in slot)
                for slot in ctx.rows[i]
            ]
            best = [
                min((v + best[c - j][0], sup + best[c - j][1])
                    for j, (v, sup) in enumerate(picks[: c + 1]))
                for c in range(len(best))
            ]
        ctx.dp = best
    value, chi = ctx.dp[level]
    candidates = {chi: (value,)}
    return candidates.keys(), candidates, 1


def _describe(rp: ReducedProblem) -> str:
    """The subproblem's pinned coupling columns, numbered from 1 as the CLI does."""
    active = [tag + 1 for tag in rp.tags if tag != "mu"]
    return f"subproblem with coupling columns {active}"


def route(rp: ReducedProblem) -> str:
    """The candidate generator solve_block runs on one subproblem.

    This is the one statement of which generator fits which subproblem;
    the generators themselves do not check it.  Past two free parameters
    it is extended; otherwise a subproblem whose blocks are all 1x1 takes
    the diagonal top sets, any other without parameters dp, and the rest cover.
    """
    if rp.k_prime > 2:
        return "extended"
    if all(blk.rows == 1 and blk.cols == 1 for blk in rp.blocks):
        return "diagonal"
    return "dp" if rp.k_prime == 0 else "cover"


def solve_block(rp: ReducedProblem) -> tuple[AbstractSet[tuple[int, ...]], RpSolution, int]:
    """Candidate supports, optimum and region count of one reduced subproblem.

    The generator route() names reads rp's context up to level
    min(sigma', n), and finish() scores its candidates; on cover the pool
    has scored them already and hands on its best one.  The regions are
    the distinct top sets on the diagonal path, so one candidate per
    region; 1 on dp; the witnesses on cover, one per distinct sign
    condition of the comparison surfaces; and the chain regions (the leaves
    of the chain tree, summed over the support regions) on extended.  The
    generators are looked up on every call, so replacing one, or route(),
    by attribute takes effect.
    """
    generate = {
        "diagonal": solve_diagonal,
        "dp": _dp_candidate,
        "cover": _cover_pool,
        "extended": _extended_candidates,
    }[route(rp)]
    ctx = _context(rp)
    supports, candidates, regions = generate(ctx, min(rp.sigma_p, rp.n_total))
    return supports, finish(candidates, rp, ctx), regions


def _lift(instance: Instance, rp: ReducedProblem, sol: RpSolution) -> Solution:
    """Map a subproblem optimum back to the instance variables."""
    n = instance.n_total
    x = [Fraction(0)] * instance.d
    for idx, v in enumerate(sol.x):
        x[idx] = v
    mu = None
    support = set(sol.support)
    for tag, coeff in zip(rp.tags, sol.lam):
        if tag == "mu":
            mu = coeff
        else:
            x[n + tag] = coeff
            support.add(n + tag)
    lifted = make_solution(instance, x, mu, support)
    if lifted.objective != sol.objective:
        raise InvariantError(
            f"lifted residual {lifted.objective} differs from the subproblem "
            f"objective {sol.objective}"
        )
    return lifted


def solve_detailed(instance: Instance) -> tuple[Solution, list[dict]]:
    """Exact optimum of a full instance, with one stats entry per subproblem.

    Validates, reduces, solves each subproblem with solve_block, and lifts
    the best result back.  See route() for which generator each subproblem
    takes.  Budget overruns are re-raised with the offending subproblem
    named.

    Each stats entry records the coupling columns pinned active, whether
    the intercept was pinned, the residual budget, the path taken, the
    number of parameter regions inspected, the candidate supports scored,
    and the subproblem's objective.
    """
    problems = validate(instance)
    if problems:
        raise ValueError("; ".join(problems))
    best: Solution | None = None
    report: list[dict] = []
    for rp in reduce(instance):
        try:
            candidates, sol, regions = solve_block(rp)
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"{_describe(rp)}: {exc}") from exc
        report.append(
            {
                "coupling": [tag for tag in rp.tags if tag != "mu"],
                "intercept": "mu" in rp.tags,
                "budget": rp.sigma_p,
                "path": route(rp),
                "regions": regions,
                "candidates": len(candidates),
                "objective": sol.objective,
            }
        )
        lifted = _lift(instance, rp, sol)
        if best is None or lifted.objective < best.objective:
            best = lifted
    if best is None:
        raise InvariantError("the empty coupling subset is always present")
    return best, report


def solve(instance: Instance) -> Solution:
    """Exact optimum of a full instance; see solve_detailed for strategy."""
    return solve_detailed(instance)[0]
