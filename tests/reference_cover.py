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

conic_cover_points is the former blocksel.cover function, unchanged: it
samples every interval of every strip's sample line, where the library
now keeps one point per sign vector.  The witnesses above come from it.
It and sweep_1d isolate roots with the Fraction-interval root layer of
reference_roots, which the library replaced by integer brackets.
split_family lists the components over which both read sign vectors.

_disc_in_x, vanishes_somewhere, split_rational_lines, _padd, _pneg and
_resultant_in_y are the former blocksel.cover helpers, unchanged: the
library now runs the x^2 branches as its y^2 branches on the swapped
conic, takes one resultant formula for every pair with a y^2 member, and
subtracts polynomials with one _psub.  The references above use them, and
tests compare the library's helpers against them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from blocksel.cover import (
    MAX_CONICS,
    Conic,
    Point2,
    _disc_in_y,
    _perfect_square_quadratic,
    _pmul,
    _unonneg,
    _y_degree,
    _y_view,
    primitive,
)
from blocksel.model import BudgetExceededError, InvariantError, ReducedProblem
from blocksel.roots import ipoly_normalize
from reference_roots import (
    AlgebraicNumber,
    isolate_real_roots,
    separating_samples,
    sort_unique_roots,
)
from blocksel.solver import MAX_PROFILE_UNIONS
from reference_arrangement import form_is_zero, form_sub
from reference_forms import QuadraticForm, eval_form, residual_quadratic


def _disc_in_x(conic: Conic) -> tuple[int, int, int]:
    a, b, c, d, e, f = conic
    return (d * d - 4 * a * f, 2 * b * d - 4 * a * e, b * b - 4 * a * c)


def vanishes_somewhere(conic: Conic) -> bool:
    """True when the conic's real zero set is nonempty.

    Members that never vanish keep one strict sign on the whole plane, so
    they neither bound a region nor tie any comparison; the caller drops
    them.  Everything else stays, even semidefinite members whose zero set
    is a line or a point: witnesses must steer around those too.
    """
    a, b, c, d, e, f = conic
    if c != 0:
        return _unonneg(*_disc_in_y(conic))
    if a != 0:
        return _unonneg(*_disc_in_x(conic))
    if b != 0:
        return True
    if d != 0 or e != 0:
        return True
    return f == 0


def split_rational_lines(conic: Conic) -> list[Conic]:
    """Factor a conic into rational lines when possible.

    Returns the component list (two lines) or the conic itself.  Working
    with components keeps pairwise resultants nonzero, which the strip
    decomposition relies on.
    """
    a, b, c, d, e, f = conic
    if c != 0:
        square = _perfect_square_quadratic(_disc_in_y(conic))
        if square is None:
            return [conic]
        q, p = square
        return [
            primitive((0, 0, 0, b - p, 2 * c, e - q)),
            primitive((0, 0, 0, b + p, 2 * c, e + q)),
        ]
    if a != 0:
        square = _perfect_square_quadratic(_disc_in_x(conic))
        if square is None:
            return [conic]
        q, p = square
        return [
            primitive((0, 0, 0, 2 * a, b - p, d - q)),
            primitive((0, 0, 0, 2 * a, b + p, d + q)),
        ]
    if b != 0:
        if b * f == d * e:
            return [
                primitive((0, 0, 0, b, 0, e)),
                primitive((0, 0, 0, 0, b, d)),
            ]
        return [conic]
    return [conic]


def _padd(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    n = max(len(u), len(v))
    return tuple(
        (u[i] if i < len(u) else 0) + (v[i] if i < len(v) else 0) for i in range(n)
    )


def _pneg(u: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in u)


def _resultant_in_y(c1: Conic, c2: Conic) -> tuple[int, ...]:
    """Resultant of two conics with respect to y: an integer polynomial in x."""
    d1, d2 = _y_degree(c1), _y_degree(c2)
    if d1 < d2:
        c1, c2 = c2, c1
        d1, d2 = d2, d1
    a1, b1, g1 = _y_view(c1)
    a2, b2, g2 = _y_view(c2)
    if d1 == 2 and d2 == 2:
        ac = _padd(_pmul(a1, g2), _pneg(_pmul(a2, g1)))
        ab = _padd(_pmul(a1, b2), _pneg(_pmul(a2, b1)))
        bc = _padd(_pmul(b1, g2), _pneg(_pmul(b2, g1)))
        return ipoly_normalize(_padd(_pmul(ac, ac), _pneg(_pmul(ab, bc))))
    if d1 == 2 and d2 == 1:
        term = _padd(
            _pmul(a1, _pmul(g2, g2)),
            _pneg(_pmul(b1, _pmul(b2, g2))),
        )
        return ipoly_normalize(_padd(term, _pmul(g1, _pmul(b2, b2))))
    if d1 == 1 and d2 == 1:
        return ipoly_normalize(_padd(_pmul(b1, g2), _pneg(_pmul(b2, g1))))
    raise ValueError("resultant needs both members to involve y")


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


def conic_cover_points(conics: Iterable[Sequence[int]]) -> list[Point2]:
    """Witnesses hitting every open sign-invariant region of the family.

    Each member is an integer (a, b, c, d, e, f), at any nonzero scale.
    Points come strip by strip, in increasing lambda_1.  A family without
    lambda_2 gets one point per strip, on the axis lambda_2 = 0, so it
    also serves curves in fewer than two parameters, padded with zeros.
    """
    family: list[Conic] = []
    seen: set[Conic] = set()
    for raw in conics:
        if len(raw) != 6:
            raise ValueError("a conic has six coefficients")
        conic = primitive(raw)
        if not any(conic):
            continue
        for part in split_rational_lines(conic):
            if not vanishes_somewhere(part):
                continue
            if part not in seen:
                seen.add(part)
                family.append(part)
    if not family:
        return [(Fraction(0), Fraction(0))]
    # Only members that involve y pair up in resultants and get solved on
    # every strip; a member without y is a nonzero constant on each strip.
    positives = [c for c in family if _y_degree(c) >= 1]
    if len(positives) > MAX_CONICS:
        raise BudgetExceededError(
            f"{len(positives)} conics involve lambda_2, over the limit of {MAX_CONICS}"
        )

    criticals = []
    for conic in family:
        deg = _y_degree(conic)
        if deg == 2:
            disc = ipoly_normalize(_disc_in_y(conic))
            if not disc:
                raise InvariantError("a kept quadratic-in-y conic has zero discriminant")
            if len(disc) > 1:
                criticals.extend(isolate_real_roots(disc))
        elif deg == 1:
            lead = ipoly_normalize((conic[4], conic[1]))  # e + b x
            if len(lead) > 1:
                criticals.extend(isolate_real_roots(lead))
        else:
            vertical = ipoly_normalize((conic[5], conic[3], conic[0]))
            if not vertical:
                raise InvariantError("a zero conic reached the family")
            if len(vertical) > 1:
                criticals.extend(isolate_real_roots(vertical))
    for i in range(len(positives)):
        for j in range(i + 1, len(positives)):
            res = _resultant_in_y(positives[i], positives[j])
            if not res:
                raise InvariantError("two distinct components have zero resultant")
            if len(res) > 1:
                criticals.extend(isolate_real_roots(res))

    strip_xs = separating_samples(sort_unique_roots(criticals))
    points: list[Point2] = []
    for w in strip_xs:
        roots = []
        for conic in positives:
            a, b, c, d, e, f = conic
            coeffs = (a * w * w + d * w + f, b * w + e, c)
            den = math.lcm(*(v.denominator for v in coeffs))
            poly = ipoly_normalize(tuple(int(v * den) for v in coeffs))
            if len(poly) > 1:
                roots.extend(isolate_real_roots(poly))
        for y in separating_samples(sort_unique_roots(roots)):
            points.append((w, y))
    return points


def split_family(conics: Iterable[Sequence[int]]) -> list[Conic]:
    """The rational components of the conics that vanish somewhere, once each."""
    family: list[Conic] = []
    for conic in conics:
        conic = primitive(conic)
        if not any(conic):
            continue
        for part in split_rational_lines(conic):
            if vanishes_somewhere(part) and part not in family:
                family.append(part)
    return family


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
