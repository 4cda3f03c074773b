"""The hyperplane cell enumerator the lifted path used, kept as a reference.

These are the former library helpers of blocksel.arrangement, unchanged
apart from LinearFunctional.canonical and LinearFunctional.is_zero, which
are free functions here.  The
solver now splits lambda space only with arrangement.argmin_regions; tests
use these to check the line cover, the cell-count identity and the
reference of the lifted path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from blocksel.linalg import LinearFunctional
from blocksel.lp import strict_sign_witness
from blocksel.model import BudgetExceededError, InvariantError


def is_zero(functional: LinearFunctional) -> bool:
    return functional.const == 0 and all(c == 0 for c in functional.coeffs)


def canonical(functional: LinearFunctional) -> LinearFunctional:
    """Scale so coefficients are coprime integers, first nonzero positive."""
    values = list(functional.coeffs) + [functional.const]
    nonzero = [v for v in values if v != 0]
    if not nonzero:
        return functional
    from math import gcd

    den = 1
    for v in values:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in values]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    lead = next(v for v in ints if v != 0)
    sign = -1 if lead < 0 else 1
    ints = [v // (g * sign) for v in ints]
    return LinearFunctional(tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1]))


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
        if is_zero(self.functional):
            raise ValueError("hyperplane functional must be nonzero")


def merge_hyperplanes(functionals: Sequence[LinearFunctional]) -> list[Hyperplane]:
    """Canonicalize, drop zero functionals, and merge twins up to a nonzero factor.

    The first functional of each twin class fixes its place in the result.
    """
    merged: dict[tuple, Hyperplane] = {}
    for functional in functionals:
        if not is_zero(functional):
            canon = canonical(functional)
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
