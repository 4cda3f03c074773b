"""Splitting an open polyhedron by its smallest linear functional.

Quadratic residual comparisons become linear functionals on an extended
space whose coordinates are the lambda variables together with all their
pairwise products.  argmin_regions splits an open polyhedron of that space
into the regions where one functional of a family is strictly smallest,
each with a rational witness strictly inside; the solver uses it both to
fix the winning support of every (block, cardinality) slot and to walk the
allocation chain.  One lp.strict_sign_witness program decides each region
that the parent's witness does not already settle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .linalg import LinearFunctional
from .lp import strict_sign_witness


Constraint = tuple[LinearFunctional, int]


def argmin_regions(
    functionals: Sequence[LinearFunctional],
    base: Sequence[Constraint],
    witness: Sequence[Fraction],
) -> list[Optional[tuple[list[Constraint], tuple[Fraction, ...]]]]:
    """Where each functional is strictly below all the others, inside base.

    base is the open polyhedron where sign * f > 0 for every (f, sign) in
    it, and witness is a point of it.  Entry i is None when functionals[i]
    is nowhere strictly smallest in base; otherwise it is that region, base
    plus the constraints f_j - f_i > 0, with a rational point strictly
    inside.  The functional strictly smallest at witness keeps witness and
    a difference without variable part is settled by its constant; any
    other entry costs one strict_sign_witness program.  Identical
    functionals are never strictly below each other.
    """
    witness = tuple(witness)
    values = [f.eval(witness) for f in functionals]
    out: list[Optional[tuple[list[Constraint], tuple[Fraction, ...]]]] = []
    for i, fi in enumerate(functionals):
        region = list(base)
        for j, fj in enumerate(functionals):
            coeffs = tuple(a - b for a, b in zip(fj.coeffs, fi.coeffs))
            const = fj.const - fi.const
            if any(coeffs):
                region.append((LinearFunctional(coeffs, const), 1))
            elif const <= 0 and j != i:
                out.append(None)
                break
        else:
            if all(values[i] < v for j, v in enumerate(values) if j != i):
                out.append((region, witness))
                continue
            point = strict_sign_witness(
                [f.coeffs for f, _ in region],
                [f.const for f, _ in region],
                [s for _, s in region],
            )
            out.append(None if point is None else (region, tuple(point)))
    return out
