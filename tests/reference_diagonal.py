"""The diagonal rankings as they were read before the kinetic walk.

These are the former solver helpers, unchanged: the difference and sum
lines of every pair of b' functionals are built and merged, and each line
is walked at one Fraction anchor per edge, where all h keys are built and
sorted again on both sides.  Tests compare solver.solve_diagonal against
the top slices of diag_rankings.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from blocksel.cover import primitive


def diag_rankings(ctx) -> tuple[tuple[int, ...], ...]:
    """Orderings of the hittable coordinates over the regions of lambda space.

    The body of the former solver._diag_rankings, without its cache on the
    context.  ctx is a solver context of an all-1x1 subproblem with at
    most two free parameters.
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
    lines = list(
        {
            primitive((p1 + s * p2, q1 + s * q2, r1 + s * r2))
            for (p1, q1, r1), (p2, q2, r2) in itertools.combinations(int_funcs, 2)
            for s in (1, -1)
            if p1 + s * p2 or q1 + s * q2
        }
    ) or [(0, 1, 0)]
    hittable = [i for i, blk in enumerate(ctx.base.blocks) if blk.at(0, 0) != 0]
    rankings: set[tuple[int, ...]] = set()
    for line in lines:
        rankings.update(_edge_rankings(line, lines, int_funcs, hittable))
    return tuple(sorted(rankings))


def _edge_rankings(line, lines, int_funcs, hittable) -> set[tuple[int, ...]]:
    """Orderings just off each edge of one line, on both sides.

    The line a x + b y + c = 0 is walked as P(t) = base + t (-b, a); its
    crossings with the other lines cut it into edges, and each edge is read
    at one interior parameter.  Along the normal n = (a, b), a functional
    with value v at that point and slope s = f . n has square
    v^2 + 2 e v s + e^2 s^2 at offset e n, so for small e > 0 the ordering
    on the + side compares (v^2, v s, s^2) lexicographically and on the -
    side (v^2, -v s, s^2).  Values are scaled by one positive integer per
    point, which keeps every comparison.  Lines and int_funcs entries are
    integer triples (a, b, c) of a x + b y + c.
    """
    a, b, c = line
    g = b if b != 0 else a  # base has denominator g
    sign, mag = (1, g) if g > 0 else (-1, -g)
    params = set()
    for a2, b2, c2 in lines:
        det = a * b2 - b * a2
        if det != 0:
            at_base = c2 * b - b2 * c if b != 0 else c2 * a - a2 * c
            params.add(Fraction(-at_base, g * det))
    params = sorted(params)
    if params:
        anchors = [params[0] - 1]
        anchors += [(u + v) / 2 for u, v in zip(params, params[1:])]
        anchors.append(params[-1] + 1)
    else:
        anchors = [Fraction(0)]
    # f(P(t)) * |g| * w = A w + B u for t = u / w.  Keys sort ascending,
    # so every component of the descending comparison is negated.
    rows = []
    for i in hittable:
        p, q, r = int_funcs[i]
        at_base = r * b - q * c if b != 0 else r * a - p * c
        s = p * a + q * b
        rows.append((sign * at_base, (q * a - p * b) * mag, s, -s * s, i))
    out = set()
    for t in anchors:
        u, w = t.numerator, t.denominator
        vals = [(big_a * w + big_b * u, s, ss, i) for big_a, big_b, s, ss, i in rows]
        plus = sorted([(-v * v, -v * s, ss, i) for v, s, ss, i in vals])
        minus = sorted([(-v * v, v * s, ss, i) for v, s, ss, i in vals])
        out.add(tuple(key[3] for key in plus))
        out.add(tuple(key[3] for key in minus))
    return out
