"""Splitting an open polyhedron by its smallest linear functional.

Quadratic residual comparisons are linear over an extended space whose
coordinates are the lambda variables together with all their pairwise
products.  A functional there is an integer row r, valued r . (1, x) at a
point x, and an open polyhedron is a list of rows, each positive on it.
argmin_regions splits an open polyhedron into the regions where one row
of a labelled family is strictly smallest, each with a rational witness
strictly inside; the solver uses it both to fix the winning support of
every (block, cardinality) slot, labelled by support, and to walk the
allocation chain, labelled by target allocation.  One
lp.strict_sign_witness program decides each region that the parent's
witness does not already settle.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from .lp import strict_sign_witness

Row = tuple[int, ...]


def argmin_regions(
    labelled: Iterable[tuple[Hashable, Row]],
    base: Sequence[Row],
    witness: Sequence[Fraction],
) -> list[tuple[Hashable, list[Row], tuple[Fraction, ...]]]:
    """Where each labelled row is strictly below all the others, inside base.

    labelled lists (label, row) pairs in label order; equal rows keep their
    first label.  base is the open polyhedron where every row of it is
    positive, and witness is a point of it.  Returns (label, region, point)
    for each row that is strictly smallest somewhere in base, in label
    order: the region is base plus the rows r_j - r_i, and the point is
    rational and strictly inside it.  The row strictly smallest at witness
    keeps witness and a difference without variable part is settled by its
    constant; any other row costs one strict_sign_witness program.
    """
    groups: dict[Row, Hashable] = {}
    for label, row in labelled:
        groups.setdefault(row, label)
    rows = list(groups)
    witness = tuple(witness)
    # Values at witness times its common denominator, which keeps their order.
    den = math.lcm(*(x.denominator for x in witness))
    point = (den, *(x.numerator * (den // x.denominator) for x in witness))
    values = [sum(map(operator.mul, row, point)) for row in rows]
    out = []
    for i, (ri, label) in enumerate(groups.items()):
        region = list(base)
        for rj in rows:
            diff = tuple(map(operator.sub, rj, ri))
            if any(diff[1:]):
                region.append(diff)
            elif diff[0] < 0:
                break
        else:
            if all(values[i] < v for j, v in enumerate(values) if j != i):
                out.append((label, region, witness))
                continue
            found = strict_sign_witness(region)
            if found is not None:
                out.append((label, region, tuple(found)))
    return out
