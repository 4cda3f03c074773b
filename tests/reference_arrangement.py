"""The hyperplane cell enumerator the lifted path used, kept as a reference.

These are the former library helpers of blocksel.arrangement, unchanged
apart from LinearFunctional.canonical and LinearFunctional.is_zero, which
are free functions here.  The solver now splits lambda space only with
arrangement.argmin_regions; tests use these to check the line cover, the
cell-count identity and the reference of the lifted path.

The library now writes every comparison as an integer row (see
linalg.residual_quadratic), so the Fraction types the references are written
in live here too: LinearFunctional and linearize, formerly in
blocksel.linalg and unchanged; form_add, form_sub and form_is_zero, the
former QuadraticForm methods add, sub and is_zero; row_value, an integer
row's value at a point; and strict_sign_witness, which takes normals,
offsets and signs as lp.strict_sign_witness once did and hands it the
signed integer rows of signed_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from blocksel import lp
from blocksel.model import BudgetExceededError, InvariantError
from reference_forms import QuadraticForm


@dataclass(frozen=True)
class LinearFunctional:
    """coeffs over the extended coordinates plus a constant term.

    Extended coordinates for dimension q: (lam_1 .. lam_q) followed by the
    monomials lam_i * lam_j in lexicographic order of (i, j) with i <= j.
    """

    coeffs: tuple[Fraction, ...]
    const: Fraction

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != len(self.coeffs):
            raise ValueError("point has wrong dimension")
        return sum((c * x for c, x in zip(self.coeffs, point)), self.const)


def linearize(form: QuadraticForm) -> LinearFunctional:
    """Rewrite a quadratic form as a linear functional on the extended coordinates.

    Off-diagonal quadratic coefficients double because the monomial
    lam_i * lam_j (i < j) appears once in the extended point but twice in
    lam^T P lam.
    """
    coeffs: list[Fraction] = list(form.r)
    for i in range(form.dim):
        for j in range(i, form.dim):
            coeffs.append(form.p[i][j] if i == j else 2 * form.p[i][j])
    return LinearFunctional(tuple(coeffs), form.s0)


def form_add(first: QuadraticForm, second: QuadraticForm, factor: int = 1) -> QuadraticForm:
    """first + factor * second."""
    if first.dim != second.dim:
        raise ValueError("dimension mismatch")
    return QuadraticForm(
        first.dim,
        tuple(
            tuple(a + factor * b for a, b in zip(ra, rb))
            for ra, rb in zip(first.p, second.p)
        ),
        tuple(a + factor * b for a, b in zip(first.r, second.r)),
        first.s0 + factor * second.s0,
    )


def form_sub(first: QuadraticForm, second: QuadraticForm) -> QuadraticForm:
    return form_add(first, second, -1)


def form_is_zero(form: QuadraticForm) -> bool:
    return (
        form.s0 == 0
        and all(v == 0 for v in form.r)
        and all(v == 0 for row in form.p for v in row)
    )


def row_value(row: Sequence[int], point: Sequence[Fraction]) -> Fraction:
    """An integer row's value at a point: row . (1, point)."""
    return row[0] + sum((a * x for a, x in zip(row[1:], point)), Fraction(0))


def signed_rows(
    normals: Sequence[Sequence[Fraction]],
    offsets: Sequence[Fraction],
    signs: Sequence[int],
) -> list[tuple[int, ...]]:
    """The integer rows s_i (c_i, a_i), each scaled by its own denominators."""
    rows = []
    for w, c0, s in zip(normals, offsets, signs):
        if s == 0:
            raise ValueError("strict witness needs nonzero signs")
        values = [Fraction(v) * s for v in (c0, *w)]
        scale = math.lcm(*(v.denominator for v in values))
        rows.append(tuple(int(v * scale) for v in values))
    return rows


def strict_sign_witness(
    normals: Sequence[Sequence[Fraction]],
    offsets: Sequence[Fraction],
    signs: Sequence[int],
):
    """A point with sign(normals[i] . x + offsets[i]) == signs[i], or None."""
    return lp.strict_sign_witness(signed_rows(normals, offsets, signs))


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
