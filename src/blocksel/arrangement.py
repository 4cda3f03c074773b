"""Hyperplane arrangements with exact rational witnesses.

Quadratic residual comparisons become linear functionals on an extended
space whose coordinates are the lambda variables together with all their
pairwise products.  Cells of the induced arrangement fix the outcome of
every comparison at once, so one rational interior witness per cell is
enough to drive the combinatorial phase of the solver.

Cells use closed semantics: the cell is where sign * functional >= 0 for
each hyperplane, while the stored witness satisfies every constraint
strictly.  Enumeration is incremental: hyperplanes are inserted one at a
time.  A cell keeps its witness on the side of the new plane where the
witness lies, and one lp.strict_sign_witness program per other side
decides whether it splits, so every witness stays strict on every plane
inserted so far.  argmin_regions splits an open polyhedron by its
smallest functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import LinearFunctional
from .lp import strict_sign_witness
from .model import BudgetExceededError, InvariantError


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
    """A nonzero linear functional."""

    functional: LinearFunctional

    def __post_init__(self) -> None:
        if self.functional.is_zero():
            raise ValueError("hyperplane functional must be nonzero")


def merge_hyperplanes(functionals: Sequence[LinearFunctional]) -> list[Hyperplane]:
    """Canonicalize, drop zero functionals, and merge twins up to a nonzero factor.

    The first functional of each twin class fixes its place in the result.
    """
    merged: dict[tuple, Hyperplane] = {}
    for functional in functionals:
        if not functional.is_zero():
            canon = functional.canonical()
            merged.setdefault((canon.coeffs, canon.const), Hyperplane(canon))
    return list(merged.values())


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
            # The kept witness is strict on the new plane, and a program's
            # point is strict on every plane so far, so each witness stays
            # strict on all of them.
            here = sign_at(plane.functional, witness)
            settled = False
            for target in (here, -here) if here else (1, -1):
                if target == here:
                    candidate = witness
                else:
                    candidate = strict_sign_witness(normals, offsets, signs + [target])
                if candidate is not None:
                    next_cells.append((signs + [target], tuple(candidate)))
                    settled = True
            if not settled:
                # A nonzero functional cannot vanish on an open region.
                raise InvariantError("cell lost during hyperplane insertion")
        cells = next_cells
        if len(cells) > max_cells:
            raise BudgetExceededError(
                f"cell count {len(cells)} exceeded the budget of {max_cells}"
            )
    return [Cell(signs=tuple(signs), witness=witness) for signs, witness in cells]


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
