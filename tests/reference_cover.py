"""The cover pool as it was before in-budget enumeration, kept as a reference.

These are the former solver helpers, unchanged: the pool unions the
winning supports of every cardinality allocation at every cover witness,
with argmins read by evaluating each residual form in Fractions, and
callers filter the budget-free pool by their own sigma'.  With one free
parameter the witnesses come from the former one-dimensional root sweep,
sweep_1d, also kept unchanged.  Tests compare the solver's candidates and
integer argmins against them.

conic_from_form is the former blocksel.cover helper, unchanged: the cover
now takes integer conics, and the references and tests that build
QuadraticForms turn them into conics with it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from blocksel.cover import Conic, conic_cover_points, primitive
from blocksel.model import BudgetExceededError, ReducedProblem
from blocksel.roots import (
    AlgebraicNumber,
    ipoly_normalize,
    isolate_real_roots,
    separating_samples,
    sort_unique_roots,
)
from blocksel.solver import MAX_PROFILE_UNIONS
from reference_arrangement import form_is_zero, form_sub
from reference_forms import QuadraticForm, eval_form, residual_quadratic


def conic_from_form(form: QuadraticForm) -> Conic:
    """Integer-normalized conic from a two-variable quadratic form."""
    if form.dim != 2:
        raise ValueError("expected a two-variable form")
    raw = (
        form.p[0][0],
        2 * form.p[0][1],
        form.p[1][1],
        form.r[0],
        form.r[1],
        form.s0,
    )
    den = math.lcm(*(v.denominator for v in raw))
    return primitive([int(v * den) for v in raw])  # type: ignore[return-value]


def _col_offsets(blocks: Sequence) -> tuple[int, ...]:
    offsets = [0]
    for blk in blocks:
        offsets.append(offsets[-1] + blk.cols)
    return tuple(offsets)


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _support_forms(base: ReducedProblem):
    """All residual forms: entry [i][j] lists (support, form) for block i, size j."""
    pieces = _row_pieces(base)
    out = []
    for i, blk in enumerate(base.blocks):
        b_piece, lam_pieces = pieces[i]
        by_size = []
        for j in range(blk.cols + 1):
            row = tuple(
                (sup, residual_quadratic(blk, b_piece, lam_pieces, sup))
                for sup in itertools.combinations(range(blk.cols), j)
            )
            by_size.append(row)
        out.append(tuple(by_size))
    return tuple(out)


def _difference_forms(base: ReducedProblem) -> list[QuadraticForm]:
    """Nonzero residual differences of same-cardinality supports per block."""
    out = []
    for rows in _support_forms(base):
        for row in rows:
            for (_, f1), (_, f2) in itertools.combinations(row, 2):
                diff = form_sub(f1, f2)
                if not form_is_zero(diff):
                    out.append(diff)
    return out


@lru_cache(maxsize=None)
def _cover_witnesses(base: ReducedProblem) -> tuple[tuple[Fraction, ...], ...]:
    """Rational lambda points hitting every sign region of the differences."""
    k = base.k_prime
    if k == 0:
        return ((),)
    diffs = _difference_forms(base)
    if k == 1:
        _, samples = sweep_1d(diffs)
        return tuple((s,) for s in samples)
    if k == 2:
        return tuple(conic_cover_points(map(conic_from_form, diffs)))
    raise ValueError("witness covers require at most two free parameters")


def _argmins_at(base: ReducedProblem, witness: Sequence[Fraction]) -> tuple:
    """Winning support per (block, cardinality) at a lambda point.

    The witness never lies on a nonzero difference surface, so ties happen
    only between supports with identical forms; those break to the
    lexicographically smallest support.
    """
    table = []
    for rows in _support_forms(base):
        per_size = tuple(
            min(row, key=lambda sf: (eval_form(sf[1], witness), sf[0]))[0]
            for row in rows
        )
        table.append(per_size)
    return tuple(table)


@lru_cache(maxsize=None)
def _cover_pool(base: ReducedProblem) -> tuple[tuple[int, ...], ...]:
    """Union supports of every argmin profile at every cover witness.

    For each witness the per-block tables are fixed; every cardinality
    allocation contributes the union of its blocks' winning supports.  The
    pool is budget-free: callers filter by their own sigma'.
    """
    profiles = {_argmins_at(base, w) for w in _cover_witnesses(base)}
    offsets = _col_offsets(base.blocks)
    per_witness = math.prod(blk.cols + 1 for blk in base.blocks)
    if per_witness * max(len(profiles), 1) > MAX_PROFILE_UNIONS:
        raise BudgetExceededError(
            f"profile union enumeration needs {per_witness} allocations for "
            f"each of {len(profiles)} argmin tables"
        )
    pool: set[tuple[int, ...]] = set()
    for table in profiles:
        ranges = [range(len(per_size)) for per_size in table]
        for alloc in itertools.product(*ranges):
            chi: list[int] = []
            for i, j in enumerate(alloc):
                chi.extend(offsets[i] + c for c in table[i][j])
            pool.add(tuple(sorted(chi)))
    return tuple(sorted(pool))


def _form_to_ipoly(form: QuadraticForm) -> tuple[int, ...]:
    """A one-variable quadratic form as an integer polynomial (c0, c1, c2)."""
    if form.dim != 1:
        raise ValueError("expected a univariate form")
    c0 = form.s0
    c1 = form.r[0]
    c2 = form.p[0][0]
    den = 1
    for c in (c0, c1, c2):
        den = den * c.denominator // math.gcd(den, c.denominator)
    return ipoly_normalize((int(c0 * den), int(c1 * den), int(c2 * den)))


def sweep_1d(
    forms: Sequence[QuadraticForm],
) -> tuple[list[AlgebraicNumber], list[Fraction]]:
    """Breakpoints and interval witnesses for univariate quadratic differences.

    Breakpoints are the sorted distinct real roots of all the forms; the
    witnesses are rational points, one strictly inside each open interval
    between consecutive breakpoints (plus one below all and one above all).
    Every form has constant sign on each open interval.
    """
    roots: list[AlgebraicNumber] = []
    for form in forms:
        poly = _form_to_ipoly(form)
        if not poly:
            raise ValueError("sweep differences must not be identically zero")
        if len(poly) == 1:
            continue  # nonzero constant: no roots, no breakpoints
        roots.extend(isolate_real_roots(poly))
    breakpoints = sort_unique_roots(roots)
    return breakpoints, separating_samples(breakpoints)
