"""Splitting an open polyhedron by its smallest linear functional.

Quadratic residual comparisons are linear over an extended space whose
coordinates are the lambda variables together with all their pairwise
products.  A functional there is an integer row r, valued r . (1, x) at a
point x, and an open polyhedron is a list of rows, each positive on it.
argmin_regions splits an open polyhedron into the regions where one row
of a family is strictly smallest, each with a rational witness strictly
inside; the solver uses it both to fix the winning support of every
(block, cardinality) slot and to walk the allocation chain.  One
lp.strict_sign_witness program decides each region that the parent's
witness does not already settle.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

from .lp import strict_sign_witness

Row = tuple[int, ...]


def argmin_regions(
    rows: Sequence[Row],
    base: Sequence[Row],
    witness: Sequence[Fraction],
) -> list[Optional[tuple[list[Row], tuple[Fraction, ...]]]]:
    """Where each row is strictly below all the others, inside base.

    base is the open polyhedron where every row of it is positive, and
    witness is a point of it.  Entry i is None when rows[i] is nowhere
    strictly smallest in base; otherwise it is that region, base plus the
    rows r_j - r_i, with a rational point strictly inside.  The row strictly
    smallest at witness keeps witness and a difference without variable
    part is settled by its constant; any other entry costs one
    strict_sign_witness program.  Identical rows are never strictly below
    each other.
    """
    witness = tuple(witness)
    # Values at witness times its common denominator, which keeps their order.
    den = math.lcm(*(x.denominator for x in witness))
    point = (den, *(x.numerator * (den // x.denominator) for x in witness))
    values = [sum(map(operator.mul, row, point)) for row in rows]
    out: list[Optional[tuple[list[Row], tuple[Fraction, ...]]]] = []
    for i, ri in enumerate(rows):
        region = list(base)
        for j, rj in enumerate(rows):
            diff = tuple(map(operator.sub, rj, ri))
            if any(diff[1:]):
                region.append(diff)
            elif diff[0] <= 0 and j != i:
                out.append(None)
                break
        else:
            if all(values[i] < v for j, v in enumerate(values) if j != i):
                out.append((region, witness))
                continue
            found = strict_sign_witness(region)
            out.append(None if found is None else (region, tuple(found)))
    return out
