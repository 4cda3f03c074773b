"""Hyperplane arrangements with exact rational witnesses.

Quadratic residual comparisons become linear functionals on an extended
space whose coordinates are the lambda variables together with all their
pairwise products.  Cells of the induced arrangement fix the outcome of
every comparison at once, so one rational interior witness per cell is
enough to drive the combinatorial phase of the solver.

Cells use closed semantics: the cell is where sign * functional >= 0 for
each hyperplane, while the stored witness satisfies every constraint
strictly.  Enumeration is incremental: hyperplanes are inserted one at a
time and an exact feasibility program decides whether a cell splits;
argmin_regions splits an open polyhedron by its smallest functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import LinearFunctional, QuadraticForm
from .lp import strict_sign_witness
from .model import BudgetExceededError
from .roots import (
    AlgebraicNumber,
    ipoly_normalize,
    isolate_real_roots,
    separating_samples,
    sort_unique_roots,
)


def ext(lam: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Lift lambda to the extended space: the variables, then all products.

    Products are ordered lexicographically by index pair (i <= j), matching
    the coefficient layout produced by linalg.linearize.
    """
    lam = tuple(Fraction(v) for v in lam)
    products = tuple(lam[i] * lam[j] for i in range(len(lam)) for j in range(i, len(lam)))
    return lam + products


def sign_at(functional: LinearFunctional, point: Sequence[Fraction]) -> int:
    """Exact sign of the functional at the point: -1, 0, or +1."""
    if len(functional.coeffs) != len(point):
        raise ValueError(
            f"functional has dimension {len(functional.coeffs)}, point has {len(point)}"
        )
    value = functional.eval(point)
    return (value > 0) - (value < 0)


@dataclass(frozen=True)
class Hyperplane:
    """A nonzero linear functional plus the comparisons it came from.

    provenance holds (label, flip) pairs: flip is -1 when the original
    difference was a negative multiple of the stored canonical functional.
    """

    functional: LinearFunctional
    provenance: tuple[tuple[object, int], ...] = ()

    def __post_init__(self) -> None:
        if self.functional.is_zero():
            raise ValueError("hyperplane functional must be nonzero")


def merge_hyperplanes(
    sources: Sequence[tuple[LinearFunctional, object]],
) -> list[Hyperplane]:
    """Canonicalize, drop zero functionals, and merge positive-scaling twins.

    Functionals that differ by a negative factor merge too; the provenance
    entry records the flip so callers can recover the original comparison
    sign from a cell sign.
    """
    merged: dict[tuple, tuple[LinearFunctional, list[tuple[object, int]]]] = {}
    order: list[tuple] = []
    for functional, label in sources:
        if functional.is_zero():
            continue
        canon = functional.canonical()
        key = (canon.coeffs, canon.const)
        # Canonical form fixes the leading nonzero coefficient positive, so a
        # negated twin canonicalizes to the same key; the raw orientation
        # tells whether this source was the flipped one.
        flip = _orientation(functional)
        if key not in merged:
            merged[key] = (canon, [])
            order.append(key)
        merged[key][1].append((label, flip))
    return [
        Hyperplane(functional=merged[key][0], provenance=tuple(merged[key][1]))
        for key in order
    ]


def _orientation(functional: LinearFunctional) -> int:
    for c in list(functional.coeffs) + [functional.const]:
        if c != 0:
            return 1 if c > 0 else -1
    return 0


@dataclass(frozen=True)
class Cell:
    """Sign vector (one +-1 per hyperplane) plus a strict interior witness."""

    signs: tuple[int, ...]
    witness: tuple[Fraction, ...]


def predicted_cell_bound(n_hyperplanes: int, dim: int) -> int:
    """Maximum cell count of n hyperplanes in R^dim: sum of C(n, i), i <= dim."""
    return sum(math.comb(n_hyperplanes, i) for i in range(min(dim, n_hyperplanes) + 1))


def enumerate_cells(
    hyperplanes: Sequence[Hyperplane],
    dim: int,
    max_cells: int = 200000,
) -> list[Cell]:
    """All full-dimensional cells of the arrangement, each with a witness.

    Raises BudgetExceededError when the predicted cell count passes
    max_cells.
    """
    bound = predicted_cell_bound(len(hyperplanes), dim)
    if bound > max_cells:
        raise BudgetExceededError(
            f"arrangement of {len(hyperplanes)} hyperplanes in dimension {dim} "
            f"may have {bound} cells, over the budget of {max_cells}"
        )
    cells: list[tuple[list[int], tuple[Fraction, ...]]] = [([], (Fraction(0),) * dim)]

    for idx, plane in enumerate(hyperplanes):
        normals = [list(h.functional.coeffs) for h in hyperplanes[: idx + 1]]
        offsets = [h.functional.const for h in hyperplanes[: idx + 1]]
        next_cells: list[tuple[list[int], tuple[Fraction, ...]]] = []
        for signs, witness in cells:
            here = sign_at(plane.functional, witness)
            targets = [here] if here != 0 else [1, -1]
            settled = False
            for target in targets:
                if target == here:
                    next_cells.append((signs + [target], witness))
                    settled = True
                    continue
                candidate = strict_sign_witness(normals, offsets, signs + [target])
                if candidate is not None:
                    next_cells.append((signs + [target], tuple(candidate)))
                    settled = True
            if here != 0:
                # Try the far side of the new hyperplane.
                candidate = strict_sign_witness(normals, offsets, signs + [-here])
                if candidate is not None:
                    next_cells.append((signs + [-here], tuple(candidate)))
            if not settled:
                # Witness sat on the plane and neither side is feasible;
                # impossible for a nonzero functional over an open region.
                raise AssertionError("cell lost during hyperplane insertion")
        cells = next_cells
        if len(cells) > max_cells:
            raise BudgetExceededError(
                f"cell count {len(cells)} exceeded the budget of {max_cells}"
            )

    # Re-witness cells whose inherited witness sits on a later hyperplane:
    # the loop above only guarantees strictness against inserted planes at
    # insertion time; a stale witness can be on a plane inserted afterwards.
    result = []
    all_normals = [list(h.functional.coeffs) for h in hyperplanes]
    all_offsets = [h.functional.const for h in hyperplanes]
    for signs, witness in cells:
        strict = all(
            sign_at(h.functional, witness) == s for h, s in zip(hyperplanes, signs)
        )
        if not strict:
            candidate = strict_sign_witness(all_normals, all_offsets, signs)
            if candidate is None:
                raise AssertionError("recorded cell has empty interior")
            witness = tuple(candidate)
        result.append(Cell(signs=tuple(signs), witness=witness))
    return result


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
