"""Rational witness points for the sign conditions of two-parameter families.

The cover path of the solver needs, for a family of curves in the
(lambda_1, lambda_2) plane, a finite set of rational points that realizes
every sign vector the family takes on an open region.  conic_cover_points
does this for families of degree-at-most-2 curves (lines included) by
cylindrical decomposition.  Critical lambda_1 values (discriminants,
leading coefficients, vertical components, pairwise resultants) split the
axis into strips; inside a strip every curve is a union of non-crossing
graphs over lambda_1, so one rational vertical line per strip meets every
region.  Each interval of that line is labelled with its sign vector,
and only a label not seen before gets a point, so the points are exactly
one per realized sign condition (Basu, Pollack & Roy, Algorithms in Real
Algebraic Geometry).

Every returned point avoids the zero set of every family member that
vanishes anywhere, so comparisons made at a witness are strict.  Members
that never vanish are dropped: they cannot change sign or create ties.

The arithmetic is in integers (see roots).  The critical values are
roots.AlgebraicNumber brackets, sorted by sort_unique_roots, and each
strip's abscissa is the dyadic with the fewest bits between two of them.
On that line every member is an integer quadratic or line in lambda_2,
whose roots are surds in closed form, sorted by isqrt brackets; only
brackets that meet are ordered by the exact fallback, roots.surd_cmp.  A
point's ordinate is again the dyadic with the fewest bits between two
roots, so only the returned points are Fractions, with power-of-two
denominators.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .model import BudgetExceededError, InvariantError
from .roots import (
    ipoly_normalize,
    isolate_real_roots,
    sample_between,
    sort_unique_roots,
    surd_between,
    surd_bracket,
    surd_cmp,
)

MAX_CONICS = 256

Point2 = tuple[Fraction, Fraction]


# --- conic machinery -------------------------------------------------------

Conic = tuple[int, int, int, int, int, int]
# (a, b, c, d, e, f) encoding a x^2 + b xy + c y^2 + d x + e y + f.


def _unonneg(gamma: int, beta: int, alpha: int) -> bool:
    """Does alpha x^2 + beta x + gamma take a value >= 0 somewhere?"""
    if alpha > 0:
        return True
    if alpha == 0:
        return beta != 0 or gamma >= 0
    return beta * beta - 4 * alpha * gamma >= 0


def _disc_in_y(conic: Conic) -> tuple[int, int, int]:
    a, b, c, d, e, f = conic
    return (e * e - 4 * c * f, 2 * b * e - 4 * c * d, b * b - 4 * c * a)


def _swap(conic: Sequence[int]) -> Conic:
    """The conic with x and y exchanged."""
    a, b, c, d, e, f = conic
    return (c, b, a, e, d, f)


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
        return vanishes_somewhere(_swap(conic))
    return f == 0 or any((b, d, e))


def _perfect_square_quadratic(u: tuple[int, int, int]) -> Optional[tuple[int, int]]:
    """If gamma + beta x + alpha x^2 == (q + p x)^2, return (q, p)."""
    gamma, beta, alpha = u
    if alpha < 0 or gamma < 0:
        return None
    p = math.isqrt(alpha)
    q = math.isqrt(gamma)
    if p * p != alpha or q * q != gamma:
        return None
    if beta == 2 * p * q:
        return (q, p)
    if beta == -2 * p * q:
        return (-q, p)
    return None


def split_rational_lines(conic: Conic) -> list[Conic]:
    """Factor a conic into rational lines when possible.

    Returns the component list (two primitive lines) or [conic] itself.  A
    conic with x^2 but no y^2 is split as its swap and each part swapped
    back.  Working with components keeps pairwise resultants nonzero,
    which the strip decomposition relies on.
    """
    a, b, c, d, e, f = conic
    if c == 0 and a != 0:
        parts = split_rational_lines(_swap(conic))
        return [conic] if len(parts) == 1 else [primitive(_swap(p)) for p in parts]
    if c != 0:
        square = _perfect_square_quadratic(_disc_in_y(conic))
        if square is None:
            return [conic]
        q, p = square
        return [
            primitive((0, 0, 0, b - p, 2 * c, e - q)),
            primitive((0, 0, 0, b + p, 2 * c, e + q)),
        ]
    if b != 0 and b * f == d * e:
        return [
            primitive((0, 0, 0, b, 0, e)),
            primitive((0, 0, 0, 0, b, d)),
        ]
    return [conic]


def primitive(values: Sequence[int]) -> tuple[int, ...]:
    """The integers divided by their gcd, first nonzero one positive.

    Two integer coefficient tuples describe the same curve up to a nonzero
    factor exactly when their primitive forms are equal.  All zeros stay
    as they are.
    """
    g = math.gcd(*values)
    if g == 0:
        return tuple(values)
    if next(v for v in values if v != 0) < 0:
        g = -g
    return tuple(v // g for v in values)


def _y_degree(conic: Conic) -> int:
    a, b, c, d, e, f = conic
    if c != 0:
        return 2
    if b != 0 or e != 0:
        return 1
    return 0


def _psub(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    n = max(len(u), len(v))
    return tuple(
        (u[i] if i < len(u) else 0) - (v[i] if i < len(v) else 0) for i in range(n)
    )


def _pmul(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    if not u or not v:
        return ()
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                out[i + j] += ui * vj
    return tuple(out)


def _y_view(conic: Conic) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Coefficients of y^2, y^1, y^0 as integer polynomials in x."""
    a, b, c, d, e, f = conic
    return ((c,), (e, b), (f, d, a))


def _resultant_in_y(c1: Conic, c2: Conic) -> tuple[int, ...]:
    """Resultant of two conics in y, up to a nonzero factor: a polynomial in x.

    Both members must involve y.  When one has a y^2 term this is the
    formula for two quadratics in y, which is symmetric; with a partner
    linear in y it is the resultant times that y^2 coefficient, with the
    same roots.  Two members linear in y take the 2x2 determinant.
    """
    if not (_y_degree(c1) and _y_degree(c2)):
        raise ValueError("resultant needs both members to involve y")
    a1, b1, g1 = _y_view(c1)
    a2, b2, g2 = _y_view(c2)
    if c1[2] or c2[2]:
        ac = _psub(_pmul(a1, g2), _pmul(a2, g1))
        ab = _psub(_pmul(a1, b2), _pmul(a2, b1))
        bc = _psub(_pmul(b1, g2), _pmul(b2, g1))
        return ipoly_normalize(_psub(_pmul(ac, ac), _pmul(ab, bc)))
    return ipoly_normalize(_psub(_pmul(b1, g2), _pmul(b2, g1)))


def conic_cover_points(conics: Iterable[Sequence[int]]) -> list[Point2]:
    """One witness per sign vector the family takes on an open region.

    Each member is an integer (a, b, c, d, e, f), at any nonzero scale;
    sign vectors are read over the members' rational components that
    vanish somewhere.  Points come strip by strip, in increasing lambda_1.
    A family without lambda_2 gets at most one point per strip, on the
    axis lambda_2 = 0, so it also serves curves in fewer than two
    parameters, padded with zeros.
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

    # Each interval of a strip's sample line is labelled with its sign
    # vector, one bit per family member; a label gets one point, in the
    # first interval that shows it.  A strip's abscissa and the points'
    # ordinates are dyadics; a Fraction is built only for a point.
    labels: set[int] = set()
    points: list[Point2] = []
    bounds = [None, *sort_unique_roots(criticals), None]
    for below, above in zip(bounds, bounds[1:]):
        n, j = sample_between(below, above)
        label, roots = _line_roots(family, n, 1 << j)
        higher = None
        for _, _, surd, bit in reversed(roots):
            if label not in labels:
                labels.add(label)
                points.append(_point((n, j), surd_between(surd, higher)))
            label ^= 1 << bit
            higher = surd
        if label not in labels:
            labels.add(label)
            points.append(_point((n, j), surd_between(None, higher)))
    return points


def _point(x: tuple[int, int], y: tuple[int, int]) -> Point2:
    """The witness at two dyadics (n, j), n / 2^j."""
    return (Fraction(x[0], 1 << x[1]), Fraction(y[0], 1 << y[1]))


def _line_roots(family: Sequence[Conic], n: int, m: int) -> tuple[int, list]:
    """The family's sign label high on the line lambda_1 = n / m, and its roots there.

    m > 0.  A member's coefficients in y at n / m, scaled by m^2 > 0 to
    integers, are c m^2, slope m and const; with y = z / m its roots are
    those of c z^2 + slope z + const over m, in closed form.  High on the
    line a member has the sign of its leading coefficient, and crossing a
    root flips it: the line avoids every discriminant root, so all roots
    are simple.  A member without y is its constant.

    Each root is (lo, hi, surd, bit): the surd of member bit, bracketed in
    [lo, hi] / 2^PRECISION.  They come sorted by bracket; brackets that
    meet are ordered exactly by surd_cmp.
    """
    label = 0
    roots = []
    for bit, (a, b, c, d, e, f) in enumerate(family):
        const = (a * n + d * m) * n + f * m * m
        slope = b * n + e * m
        if (c or slope or const) > 0:
            label |= 1 << bit
        if c:
            disc = slope * slope - 4 * c * const
            if disc > 0:
                r = 2 * c * m
                p, r = (-slope, r) if r > 0 else (slope, -r)
                for q in (-1, 1):
                    surd = (p, q, disc, r)
                    roots.append((*surd_bracket(surd), surd, bit))
        elif slope:
            p, r = (-const, slope * m) if slope > 0 else (const, -slope * m)
            surd = (p, 0, 0, r)
            roots.append((*surd_bracket(surd), surd, bit))
    roots.sort()
    start = reach = 0
    for i, (lo, hi, _, _) in enumerate(roots):
        if i and lo <= reach:
            reach = max(reach, hi)
            continue
        _order_exactly(roots, start, i)
        start, reach = i, hi
    _order_exactly(roots, start, len(roots))
    return label, roots


def _order_exactly(roots: list, start: int, stop: int) -> None:
    """Sort roots[start:stop], whose brackets meet in a chain, exactly."""
    if stop - start > 1:
        roots[start:stop] = sorted(roots[start:stop], key=_ROOT_ORDER)


def _distinct_roots(x, y) -> int:
    order = surd_cmp(x[2], y[2])
    if order == 0:
        # The line avoids every resultant root, so no two members meet on it.
        raise InvariantError("two members share a root inside a strip")
    return order


_ROOT_ORDER = functools.cmp_to_key(_distinct_roots)
