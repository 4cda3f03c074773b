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
lambda_i lambda_j), all rows of a subproblem at one positive scale
(linalg.residual_quadratic); comparisons read these rows, and a
candidate's residual is the integer sum of its blocks' rows, minimized by
linalg.quadratic_minimum as an integer ratio.  finish() compares these
ratios by cross-multiplication and builds Fractions only for the winner:
its value, its lambda (linalg.quadratic_minimizer) and its block
coefficients (linalg.least_squares).

route() picks one of three candidate generators per subproblem:

* diagonal: all blocks 1x1 and at most two free parameters.  The optimal
  support is the top sigma' coordinates by |b'(lambda)|, so the
  candidates are the top sets over the regions of lambda space.  They are
  read off the edges of a line arrangement in the plane, in integers:
  each tie class of a line (coordinates of equal |b'| along it) is walked
  only against the lines that share a coordinate with it, and a set is
  recorded only where the sigma'-level cuts the class.
* cover: every other subproblem with at most two free parameters.  Argmin
  profiles are read at the witnesses of one conic cover of the plane; the
  allocation work is bounded by MAX_PROFILE_UNIONS.
* extended: three or more free parameters.  The comparisons are linear
  over the coordinates (lambda, pairwise products of lambda), and the
  space is split exactly into support regions, where every
  (block, cardinality) slot has one winner, by the argmin of each slot's
  integer rows; each support region is then split into the regions
  where the incremental allocation chain makes the same choices, found by
  walking the chain as a tree with the same argmin step.  A chain step
  goes to one of the next-level allocations of aug_set, which remove at
  most theta_bar units: by the proximity radius theta_bar of the block
  structure, some optimal allocation one level up is always that close.
  It has no parameter-count limit and doubles as a cross-check.

With fewer than two free parameters, diagonal and cover still read lambda
space as the plane, with zero coefficients on the missing parameters.

Everything that does not depend on sigma' (residual rows, argmin
profiles, candidate values) lives in one context per subproblem, held in
a cache of MAX_CONTEXTS entries so that a sigma sweep over the same data
reuses it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

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
    MethodRefusedError,
    ReducedProblem,
    Solution,
    make_solution,
    validate,
)

DEFAULT_MAX_CELLS = 200000
# Bounds the cover path's pool work: in-budget allocations times distinct
# argmin profiles.
MAX_PROFILE_UNIONS = 1000000
# Subproblem contexts kept for reuse across solves; the least recently used
# is dropped first.
MAX_CONTEXTS = 64

CandidateSet = set[tuple[int, ...]]


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
    then lexicographically, so the empty subset comes first.
    """
    problems: list[ReducedProblem] = []
    for size in range(min(instance.k, instance.sigma) + 1):
        for combo in itertools.combinations(range(instance.k), size):
            lambda_cols: list[tuple[Fraction, ...]] = []
            tags: list = []
            if instance.intercept is not None:
                lambda_cols.append(instance.intercept)
                tags.append("mu")
            for idx in combo:
                lambda_cols.append(instance.coupling[idx])
                tags.append(idx)
            problems.append(
                ReducedProblem(
                    blocks=instance.blocks,
                    b=instance.b,
                    lambda_cols=tuple(lambda_cols),
                    tags=tuple(tags),
                    sigma_p=instance.sigma - size,
                )
            )
    return problems


# --- per-subproblem context -------------------------------------------------
#
# Everything below is keyed on the subproblem with its budget stripped, so a
# sigma sweep over the same data reuses witnesses, argmin profiles, and
# candidate values.  One bounded cache holds a context per subproblem; each
# lookup hashes the subproblem once, and every helper then works on the
# context's own tables.


def _strip_budget(rp: ReducedProblem) -> ReducedProblem:
    return replace(rp, sigma_p=0)


def _col_offsets(blocks: Sequence) -> tuple[int, ...]:
    offsets = [0]
    for blk in blocks:
        offsets.append(offsets[-1] + blk.cols)
    return tuple(offsets)


def _row_pieces(base: ReducedProblem):
    """Per block: (piece of b, pieces of each lambda column)."""
    pieces = []
    offset = 0
    for blk in base.blocks:
        rows = range(offset, offset + blk.rows)
        b_piece = tuple(base.b[r] for r in rows)
        lam_pieces = tuple(tuple(col[r] for r in rows) for col in base.lambda_cols)
        pieces.append((b_piece, lam_pieces))
        offset += blk.rows
    return tuple(pieces)


@dataclass
class _Context:
    """Sigma-independent data of one subproblem, shared by every budget.

    The residual rows and the column offsets are built up front; the cover
    profiles are filled in by the first cover solve, and candidate values
    as candidates get scored.  Entry rows[i][j] lists (support, row) for
    block i, size j, and row_of[i] maps each support of block i to its row.
    Every row shares the positive scale: a support's residual at lam is
    row . (1, lam, lam_i lam_j) / scale.
    """

    base: ReducedProblem
    pieces: tuple
    rows: tuple
    row_of: tuple[dict, ...]
    scale: int
    offsets: tuple[int, ...]
    values: dict = field(default_factory=dict)
    witness_count: int = 0
    profiles: tuple | None = None


@lru_cache(maxsize=MAX_CONTEXTS)
def _context(base: ReducedProblem) -> _Context:
    """The context of a budget-stripped subproblem, built on first use.

    Each support's (row, scale) comes from residual_quadratic; the rows are
    brought to the lcm of the scales and divided by the gcd of that common
    scale and all their entries, so they share one integer scale.
    """
    pieces = _row_pieces(base)
    raw = [
        [
            [
                (sup, *residual_quadratic(blk, b_piece, lam_pieces, sup))
                for sup in itertools.combinations(range(blk.cols), j)
            ]
            for j in range(blk.cols + 1)
        ]
        for blk, (b_piece, lam_pieces) in zip(base.blocks, pieces)
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
    return _Context(base, pieces, rows, row_of, common // g, _col_offsets(base.blocks))


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
    if k > 2:
        raise ValueError("witness covers require at most two free parameters")
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
    lexicographically smallest support.
    """
    den = math.lcm(*(x.denominator for x in witness))
    coords = [x.numerator * (den // x.denominator) for x in witness]
    monomials = [den * den, *(den * c for c in coords)]
    for i, ci in enumerate(coords):
        monomials.extend(ci * cj for cj in coords[i:])
    return tuple(
        tuple(
            min((sum(map(operator.mul, row, monomials)), sup) for sup, row in slot)[1]
            for slot in per_size
        )
        for per_size in rows
    )


def _cover_profiles(ctx: _Context) -> tuple:
    """Distinct argmin profiles over the cover witnesses, computed once.

    A sign condition of the differences fixes every slot's winner, so each
    profile is read at one witness per sign condition; witness_count
    records how many distinct sign conditions that is.
    """
    if ctx.profiles is None:
        witnesses = _cover_witnesses(ctx.rows, ctx.base.k_prime)
        ctx.profiles = tuple({_argmins_at(ctx.rows, w) for w in witnesses})
        ctx.witness_count = len(witnesses)
    return ctx.profiles


def _allocation_count(widths: Sequence[int], limit: int) -> int:
    """Cardinality allocations (j_i <= widths[i]) with sum at most limit."""
    counts = [1] + [0] * limit  # counts[s]: partial allocations summing to s
    for width in widths:
        counts = [
            sum(counts[s - j] for j in range(min(width, s) + 1))
            for s in range(limit + 1)
        ]
    return sum(counts)


def _cover_pool(ctx: _Context, limit: int) -> CandidateSet:
    """Union supports of every in-budget allocation under every argmin profile.

    For each profile the per-block winners are fixed; every cardinality
    allocation with at most limit columns in total contributes the union of
    its blocks' winning supports.  Allocations are built by choosing the
    blocks with a nonzero cardinality in increasing order, so each one is
    visited once and the union comes out sorted.
    """
    profiles = _cover_profiles(ctx)
    allocations = _allocation_count([blk.cols for blk in ctx.base.blocks], limit)
    if allocations * max(len(profiles), 1) > MAX_PROFILE_UNIONS:
        raise BudgetExceededError(
            f"profile union enumeration needs {allocations} allocations of at "
            f"most {limit} columns for each of {len(profiles)} argmin tables"
        )
    pool: CandidateSet = set()
    h = len(ctx.base.blocks)
    for table in profiles:
        shifted = [
            [tuple(ctx.offsets[i] + c for c in sup) for sup in per_size]
            for i, per_size in enumerate(table)
        ]
        stack = [(0, limit, ())]
        while stack:
            start, room, prefix = stack.pop()
            pool.add(prefix)
            for i in range(start, h):
                for sup in shifted[i][1 : room + 1]:
                    stack.append((i + 1, room - len(sup), prefix + sup))
    return pool


def _candidate_row(ctx: _Context, chi: tuple[int, ...]) -> tuple[int, ...]:
    """One candidate's residual row: the integer sum of its blocks' rows."""
    offsets = ctx.offsets
    rows = [
        row_of[tuple(c - offsets[i] for c in chi if offsets[i] <= c < offsets[i + 1])]
        for i, row_of in enumerate(ctx.row_of)
    ]
    return tuple(map(sum, zip(*rows)))


def _candidate_value(ctx: _Context, chi: tuple[int, ...]) -> tuple[int, int]:
    """Exact minimum over lambda of one candidate's residual, computed once.

    It is the integer pair (numerator, denominator) in lowest terms from
    quadratic_minimum, at the context's scale.
    """
    hit = ctx.values.get(chi)
    if hit is None:
        row = _candidate_row(ctx, chi)
        hit = ctx.values[chi] = quadratic_minimum(row, ctx.base.k_prime, ctx.scale)
    return hit


def finish(
    candidates: Iterable[Sequence[int]], rp: ReducedProblem, ctx: _Context
) -> RpSolution:
    """Best subproblem solution over the candidate supports.

    ctx is the context of rp with its budget stripped.  Each candidate's
    summed residual row is minimized over lambda in closed form, as an
    integer ratio, and the minima are compared by cross-multiplication; the
    empty support always participates.  Ties prefer the lexicographically
    smallest support.  Only the winner gets Fractions: its value, its
    lambda, and its block coefficients, rebuilt by per-block least squares
    at that lambda from the blocks' columns and b alone.
    """
    pool = {tuple(sorted(chi)) for chi in candidates}
    pool.add(())
    if any(len(chi) > rp.sigma_p for chi in pool):
        raise ValueError("candidate support exceeds the subproblem budget")
    chi = ()
    num, den = _candidate_value(ctx, chi)
    for other in pool:
        n, d = _candidate_value(ctx, other)
        lhs, rhs = n * den, num * d
        if lhs < rhs or (lhs == rhs and other < chi):
            chi, num, den = other, n, d
    value = Fraction(num, den)
    best_lam = quadratic_minimizer(_candidate_row(ctx, chi), rp.k_prime)

    offsets = ctx.offsets
    x = [Fraction(0)] * rp.n_total
    rebuilt = Fraction(0)
    for i, blk in enumerate(rp.blocks):
        local = [c - offsets[i] for c in chi if offsets[i] <= c < offsets[i + 1]]
        b_piece, lam_pieces = ctx.pieces[i]
        target = list(b_piece)
        for coeff, piece in zip(best_lam, lam_pieces):
            if coeff:
                for r in range(len(target)):
                    target[r] -= coeff * piece[r]
        coeffs, res2 = least_squares([blk.column(c) for c in local], target)
        for c, v in zip(local, coeffs):
            x[offsets[i] + c] = v
        rebuilt += res2
    if rebuilt != value:
        raise InvariantError(
            f"rebuilt residual {rebuilt} differs from the closed-form value {value}"
        )
    return RpSolution(tuple(x), best_lam, value, chi)


# --- diagonal specialization ------------------------------------------------


def _diag_top_sets(ctx: _Context, top: int) -> CandidateSet:
    """Top sets of the hittable coordinates over the regions of lambda space.

    Coordinates rank by squared adjusted right side |b'(lambda)|^2,
    descending, index ascending; coordinates with a zero diagonal entry are
    left out, and a top set holds the first min(top, hittable) of them.  At
    top 0, or at a top that takes every hittable coordinate, that set is
    the same in every region, so nothing is walked; otherwise see
    _walk_top_sets.  More than two free parameters raise ValueError.
    """
    k = ctx.base.k_prime
    if k > 2:
        raise ValueError(
            f"diagonal top sets take at most two free parameters, not {k}"
        )
    hittable = [i for i, blk in enumerate(ctx.base.blocks) if blk.at(0, 0) != 0]
    if top == 0 or top >= len(hittable):
        return {tuple(hittable[:top])}
    return _walk_top_sets(ctx, hittable, top)


def _walk_top_sets(ctx: _Context, hittable: list[int], top: int) -> CandidateSet:
    """Top sets over the regions of the plane, read where the level cuts a class.

    Rankings change only across the pairwise difference and sum lines of
    the hittable b' functionals, where |b'_i| = |b'_j|.  The functionals
    get zero coefficients up to two parameters, so lambda space is read as
    the plane.  Each merged line keeps the pairs it carries, and their
    union splits its coordinates into tie classes, equal in |b'| along the
    whole line.  Unless the top set is the same in every region, each
    region's top set changes across some edge of its boundary; at a point
    of that edge off every crossing the classes of the line have distinct
    |b'|, so the change is the level cutting one class: some of its
    members are in the top set, not all.  Each class is walked only
    against the lines that carry one of its members (_class_top_sets),
    since a coordinate outside it passes it only there.  One more set is
    read from a full ranking just off an edge of one line, walked against
    all of its crossings (without any line, the line lambda_2 = 0): when
    no class is cut anywhere, the top set is the same in every region, and
    that is the only one.
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
    top_sets: CandidateSet = set()
    for line, class_of in classes.items():
        a, b, _ = line
        for members in set(class_of.values()):
            crossing: dict[tuple[int, ...], frozenset[int]] = {}
            for q in members:
                for other in carrying[q]:
                    if a * other[1] != b * other[0]:
                        tied = classes[other][q]
                        crossing[other] = crossing.get(other, tied) | tied
            top_sets.update(
                _class_top_sets(line, members, crossing, int_funcs, hittable, top)
            )
    line = next(iter(classes), (0, 1, 0))
    a, b, _ = line
    crossing = {other: frozenset() for other in classes if a * other[1] != b * other[0]}
    rows, u, _ = _line_anchors(line, crossing, int_funcs, hittable)
    top_sets.add(tuple(sorted(_ranked(rows, hittable, u, 1)[:top])))
    return top_sets


def _line_anchors(line, crossing, int_funcs, hittable):
    """Values along one line, its first anchor and its crossings.

    The line a x + b y + c = 0 is walked as P(t) = base + t (-b, a); the
    lines of crossing, a dict from each to a set of coordinates, cut it at
    parameters t = n / d with 0 < d <= D.  With M = 2 D^2 the integer key
    floor(n M / d) orders the crossings and tells distinct ones apart by at
    least 2, so the edge after the crossing of key K is read at (K + 1) / M
    and the first edge at (K_0 - 1) / M: every anchor shares the
    denominator M.  Returns rows, the first anchor's numerator and the
    sorted (key, coordinates) of the crossings, the coordinates of lines
    through one point merged.  For each hittable i, rows[i] = (A, B, s)
    gives f_i(P(u / M)) * |g| * M = A + B u, g the base's denominator, and
    s the slope f_i . (a, b) along the normal; one positive factor per
    point keeps every comparison.  Lines and int_funcs entries are integer
    triples (a, b, c) of a x + b y + c.
    """
    a, b, c = line
    g = b if b != 0 else a  # base has denominator g
    sign, mag = (1, g) if g > 0 else (-1, -g)
    swaps: dict[int, set[int]] = {}
    w, u = 1, 0
    if crossing:
        hits = []
        for (a2, b2, c2), carried in crossing.items():
            n = b2 * c - c2 * b if b != 0 else a2 * c - c2 * a
            d = g * (a * b2 - b * a2)
            hits.append((n, d, carried) if d > 0 else (-n, -d, carried))
        w = 2 * max(d for _, d, _ in hits) ** 2
        for n, d, carried in hits:
            swaps.setdefault(n * w // d, set()).update(carried)
        u = min(swaps) - 1
    rows = {}
    for i in hittable:
        p, q, r = int_funcs[i]
        at_base = r * b - q * c if b != 0 else r * a - p * c
        rows[i] = (sign * at_base * w, (q * a - p * b) * mag, p * a + q * b)
    return rows, u, sorted(swaps.items())


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


def _class_top_sets(line, members, crossing, int_funcs, hittable, top) -> CandidateSet:
    """Top sets on both sides of one line where the level cuts a tie class.

    members is a tie class of the line, and crossing maps each line of
    another direction that carries a member to the coordinates tied with a
    member along it (see _line_anchors for the walk).  A coordinate
    outside the class stays above or below it along the line except where
    it ties a member, at such a crossing; so the set above the class is
    compared once at the first anchor and afterwards, at the anchor past
    each crossing, only among that crossing's coordinates.  The members'
    own order just off the line changes only where they vanish, which is
    all along it or at its crossing with the other line of two of them.
    With n = top - |above|, an edge where 0 < n < |members| reads, on each
    side, above and the best n members.
    """
    rows, u, swaps = _line_anchors(line, crossing, int_funcs, hittable)
    q = next(iter(members))
    above: set[int] = set()
    out: CandidateSet = set()
    for u, coords in [(u, hittable), *((key + 1, coords) for key, coords in swaps)]:
        big_a, big_b, _ = rows[q]
        level = (big_a + big_b * u) ** 2
        for i in coords:
            if i not in members:
                big_a, big_b, _ = rows[i]
                if (big_a + big_b * u) ** 2 > level:
                    above.add(i)
                else:
                    above.discard(i)
        n = top - len(above)
        if 0 < n < len(members):
            for side in (1, -1):
                out.add(tuple(sorted(above.union(_ranked(rows, members, u, side)[:n]))))
    return out


def solve_diagonal(rp: ReducedProblem) -> tuple[CandidateSet, RpSolution]:
    """Candidates and optimum for an all-1x1 subproblem with k' <= 2.

    At any lambda the optimal support is the top sigma' coordinates by
    |b'(lambda)|, restricted to nonzero diagonal entries: each inclusion
    removes that coordinate's squared residual.  The candidates are the
    top sets over the regions of lambda space, one per region.  Other
    blocks, or more than two free parameters, raise ValueError.
    """
    for blk in rp.blocks:
        if blk.rows != 1 or blk.cols != 1:
            raise ValueError("solve_diagonal requires 1x1 blocks")
    ctx = _context(_strip_budget(rp))
    candidates = _diag_top_sets(ctx, rp.sigma_p)
    return candidates, finish(candidates, rp, ctx)


# --- general blocks ---------------------------------------------------------


def _support_regions(ctx: _Context, max_cells: int) -> list:
    """Open regions of extended space on which every slot has one winner.

    The residual comparisons are quadratic in lambda but linear over the
    extended coordinates (lambda, then pairwise products).  Each
    (block, cardinality) slot labels each row with its support, so equal
    rows keep the lexicographically smallest; starting from the whole
    space, every region is split by argmin_regions over the slot's rows,
    so a slot whose rows are all equal splits nothing.  Returns
    (constraints, witness, selections) per region, selections[i][j] being
    the winning support of block i at size j.  Regions count against
    max_cells as they grow.
    """
    regions = [([], (Fraction(0),) * extended_dim(ctx.base.k_prime), ())]
    for per_size in ctx.rows:
        for slot in per_size:
            regions = [
                (region, point, picks + (sup,))
                for constraints, witness, picks in regions
                for sup, region, point in argmin_regions(slot, constraints, witness)
            ]
            if len(regions) > max_cells:
                raise BudgetExceededError(
                    f"support regions reached {len(regions)}, over the budget "
                    f"of {max_cells}"
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


def _extended_candidates(
    rp: ReducedProblem, ctx: _Context, max_cells: int
) -> tuple[CandidateSet, int]:
    """Candidates and chain-region count from the extended-space regions.

    ctx is the context of rp with its budget stripped.  In each support
    region the winning supports fix an integer row per (block, cardinality)
    slot.  The incremental chain climbs from the zero allocation to level
    min(sigma', n) by _chain_steps.  It is walked as a tree whose node is
    an open region, a witness in it and the allocation reached; its
    children are the targets whose totals are strictly smallest somewhere
    in the region.  The leaves fill the support region up to finitely many
    hyperplanes, the chain's outcome is constant on each, and each
    contributes its support.  Leaves count against max_cells.
    """
    structure = rp.structure()
    level = min(rp.sigma_p, rp.n_total)
    regions = 0
    candidates: CandidateSet = set()
    for root, start, selections in _support_regions(ctx, max_cells):
        slots = [
            [ctx.row_of[i][sup] for sup in per_size]
            for i, per_size in enumerate(selections)
        ]
        stack = [(root, start, (0,) * len(slots))]
        while stack:
            region, witness, alloc = stack.pop()
            if sum(alloc) == level:
                regions += 1
                if regions > max_cells:
                    raise BudgetExceededError(
                        f"chain regions reached {regions}, over the budget of "
                        f"{max_cells}"
                    )
                chi: list[int] = []
                for i, j in enumerate(alloc):
                    chi.extend(ctx.offsets[i] + c for c in selections[i][j])
                candidates.add(tuple(sorted(chi)))
                continue
            steps = _chain_steps(structure, slots, alloc)
            stack.extend(
                (child, point, target)
                for target, child, point in argmin_regions(steps, region, witness)
            )
    return candidates, regions


METHODS = ("auto", "diagonal", "cover", "extended")


def _describe(rp: ReducedProblem) -> str:
    """The subproblem's pinned coupling columns, numbered from 1 as the CLI does."""
    active = [tag + 1 for tag in rp.tags if tag != "mu"]
    return f"subproblem with coupling columns {active}"


def route(rp: ReducedProblem, method: str = "auto") -> str:
    """The candidate generator solve_block runs on one subproblem.

    Under "auto" and "diagonal", a subproblem whose blocks are all 1x1 and
    that has at most two free parameters takes the diagonal top sets; every
    other subproblem takes cover up to two free parameters and extended
    beyond.  "diagonal" therefore names the 1x1 route and is refused when a
    block is not 1x1; "cover" is refused beyond two free parameters;
    "extended" serves every subproblem.  A refusal raises MethodRefusedError
    naming the method and the subproblem.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    unit = all(blk.rows == 1 and blk.cols == 1 for blk in rp.blocks)
    if method == "diagonal" and not unit:
        raise MethodRefusedError(
            f"method 'diagonal' needs 1x1 blocks, and the {_describe(rp)} "
            "has a larger block"
        )
    if method == "cover" and rp.k_prime > 2:
        raise MethodRefusedError(
            f"method 'cover' takes at most two free parameters, and the "
            f"{_describe(rp)} has {rp.k_prime}"
        )
    if method in ("cover", "extended"):
        return method
    if rp.k_prime > 2:
        return "extended"
    return "diagonal" if unit else "cover"


def solve_block(
    rp: ReducedProblem,
    max_cells: int = DEFAULT_MAX_CELLS,
    method: str = "auto",
    stats: dict | None = None,
) -> tuple[CandidateSet, RpSolution]:
    """Candidates and optimum for one reduced subproblem.

    route() picks the generator for method.  A stats dict, when given,
    receives the path taken and its region count: distinct top sets on
    the diagonal path, so one candidate per region; witnesses on cover,
    one per distinct sign condition of the comparison surfaces;
    chain regions (the leaves of the chain tree, summed over the support
    regions) on extended.
    """
    path = route(rp, method)
    if path == "diagonal":
        candidates, sol = solve_diagonal(rp)
        regions = len(candidates)
    else:
        ctx = _context(_strip_budget(rp))
        if path == "cover":
            candidates = _cover_pool(ctx, min(rp.sigma_p, rp.n_total))
            regions = ctx.witness_count
        else:
            candidates, regions = _extended_candidates(rp, ctx, max_cells)
        sol = finish(candidates, rp, ctx)
    if stats is not None:
        stats["path"] = path
        stats["regions"] = regions
    return candidates, sol


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


def solve_detailed(
    instance: Instance,
    max_cells: int = DEFAULT_MAX_CELLS,
    method: str = "auto",
) -> tuple[Solution, list[dict]]:
    """Exact optimum of a full instance, with one stats entry per subproblem.

    Validates, reduces, and routes every subproblem before solving any, so
    a forced method that cannot serve one is refused up front with
    MethodRefusedError; then solves each with solve_block and lifts the best result
    back.  See route() for which generator each method picks.  Budget
    overruns are re-raised with the offending subproblem named.

    Each stats entry records the coupling columns pinned active, whether
    the intercept was pinned, the residual budget, the path taken, the
    number of parameter regions inspected, the candidate supports scored,
    and the subproblem's objective.
    """
    problems = validate(instance)
    if problems:
        raise ValueError("; ".join(problems))
    subproblems = reduce(instance)
    for rp in subproblems:
        route(rp, method)
    best: Solution | None = None
    report: list[dict] = []
    for rp in subproblems:
        stats: dict = {}
        try:
            candidates, sol = solve_block(
                rp, max_cells=max_cells, method=method, stats=stats
            )
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"{_describe(rp)}: {exc}") from exc
        report.append(
            {
                "coupling": [tag for tag in rp.tags if tag != "mu"],
                "intercept": "mu" in rp.tags,
                "budget": rp.sigma_p,
                "path": stats["path"],
                "regions": stats["regions"],
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


def solve(
    instance: Instance,
    max_cells: int = DEFAULT_MAX_CELLS,
    method: str = "auto",
) -> Solution:
    """Exact optimum of a full instance; see solve_detailed for strategy."""
    return solve_detailed(instance, max_cells=max_cells, method=method)[0]
