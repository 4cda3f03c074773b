"""The Fraction quadratic forms the library used, kept as a reference.

The library writes each residual form only as an integer row with a
positive scale (linalg.residual_quadratic) and takes minima of such rows
(linalg.quadratic_minimum).  These are its former Fraction helpers,
unchanged: Vector, _dot, least_squares by Gram-Schmidt, QuadraticForm,
eval_form, orthogonalize, residual_quadratic by Gram-Schmidt,
quadratic_minimum by Gauss-Jordan elimination, integer_rows, formerly in
blocksel.linalg, and _support_forms, formerly in blocksel.solver.  Tests
and the other references check the library against them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from blocksel.model import RatMatrix, ReducedProblem

Vector = tuple[Fraction, ...]


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def least_squares(
    columns: Sequence[Sequence[Fraction]], y: Sequence[Fraction]
) -> tuple[list[Fraction], Fraction]:
    """Exact least squares min |A x - y|^2 over the given columns.

    One Gram-Schmidt pass writes the kept columns as U R, U orthogonal and
    R unit upper triangular from the recorded projection coefficients; y's
    coefficients c on U give x by back substitution through R x = c.
    Dependent columns (in input order) receive coefficient 0, which makes the
    minimizer deterministic even when A is rank deficient.  Returns the
    coefficient vector and the exact squared residual.
    """
    kept: list[int] = []
    basis: list[tuple[Vector, Fraction]] = []
    above: list[list[Fraction]] = []  # above[j][i]: R entry (i, j), i < j
    for idx, col in enumerate(columns):
        u = [Fraction(x) for x in col]
        coeffs = []
        for w, ww in basis:
            coeff = _dot(u, w) / ww
            coeffs.append(coeff)
            if coeff:
                for i in range(len(u)):
                    u[i] -= coeff * w[i]
        if any(u):
            kept.append(idx)
            basis.append((tuple(u), _dot(u, u)))
            above.append(coeffs)
    res2 = _dot(y, y)
    z = []
    for w, ww in basis:
        proj = _dot(y, w)
        z.append(proj / ww)
        res2 -= proj * z[-1]
    for j in range(len(z) - 1, 0, -1):
        for i, r in enumerate(above[j]):
            z[i] -= r * z[j]
    x = [Fraction(0)] * len(columns)
    for idx, v in zip(kept, z):
        x[idx] = v
    return x, res2


def orthogonalize(vectors: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Gram-Schmidt without normalization.

    Returns an orthogonal (not orthonormal) basis of the span.  Vectors that
    are dependent on their predecessors are dropped, in input order, so the
    result is deterministic and square roots never appear.
    """
    basis: list[Vector] = []
    for v in vectors:
        u = [Fraction(x) for x in v]
        for w in basis:
            ww = _dot(w, w)
            coeff = _dot(u, w) / ww
            if coeff:
                for i in range(len(u)):
                    u[i] -= coeff * w[i]
        if any(u):
            basis.append(tuple(u))
    return basis


@dataclass(frozen=True)
class QuadraticForm:
    """value(lam) = lam^T P lam + r . lam + s0, with P symmetric, all exact."""

    dim: int
    p: tuple[tuple[Fraction, ...], ...]
    r: tuple[Fraction, ...]
    s0: Fraction

    def __post_init__(self) -> None:
        if len(self.p) != self.dim or any(len(row) != self.dim for row in self.p):
            raise ValueError("P must be dim x dim")
        if len(self.r) != self.dim:
            raise ValueError("r must have length dim")
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.p[i][j] != self.p[j][i]:
                    raise ValueError("P must be symmetric")


def eval_form(form: QuadraticForm, lam: Sequence[Fraction]) -> Fraction:
    """Exact evaluation of a quadratic form at a rational point."""
    if len(lam) != form.dim:
        raise ValueError("point has wrong dimension")
    total = form.s0
    for i in range(form.dim):
        li = lam[i]
        if li:
            total += form.r[i] * li
            row = form.p[i]
            for j in range(form.dim):
                if row[j] and lam[j]:
                    total += row[j] * li * lam[j]
    return total


def residual_quadratic(
    block: RatMatrix,
    b_piece: Sequence[Fraction],
    lambda_pieces: Sequence[Sequence[Fraction]],
    support: Sequence[int],
) -> QuadraticForm:
    """Squared distance from p(lam) = b - sum_l lambda_l * col_l to span(A[:, support]).

    The projection is carried by an orthogonal basis of the selected columns,
    so the result is an exact quadratic form in lam (dimension = number of
    lambda columns).  Works for any support, including rank-deficient ones.
    """
    dim = len(lambda_pieces)
    # |p|^2 expanded over lam.
    p = [[_dot(a, c) for c in lambda_pieces] for a in lambda_pieces]
    r = [-2 * _dot(b_piece, piece) for piece in lambda_pieces]
    s0 = _dot(b_piece, b_piece)
    # Subtract <p,u>^2 / <u,u> = (alpha0 + alpha . lam)^2 / <u,u> for each
    # basis vector u.
    for u in orthogonalize([block.column(c) for c in support]):
        uu = _dot(u, u)
        alpha0 = _dot(b_piece, u)
        alpha = [-_dot(piece, u) for piece in lambda_pieces]
        s0 -= alpha0 * alpha0 / uu
        for i in range(dim):
            scaled = alpha[i] / uu
            r[i] -= 2 * alpha0 * scaled
            for j in range(dim):
                p[i][j] -= scaled * alpha[j]
    return QuadraticForm(dim, tuple(map(tuple, p)), tuple(r), s0)


def quadratic_minimum(form: QuadraticForm) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact global minimum of a positive-semidefinite quadratic form.

    Solves the stationarity system 2 P lam = -r by elimination, setting free
    variables to zero.  The forms minimized here are sums of squared
    residuals, so they are bounded below and the system is consistent;
    an inconsistent system raises ValueError.
    """
    dim = form.dim
    if dim == 0:
        return form.s0, ()
    rows = [
        [2 * form.p[i][j] for j in range(dim)] + [-form.r[i]] for i in range(dim)
    ]
    pivot_cols: list[int] = []
    rank = 0
    for col in range(dim):
        pivot = next((r for r in range(rank, dim) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(dim):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        pivot_cols.append(col)
        rank += 1
    for r in range(rank, dim):
        if rows[r][dim] != 0:
            raise ValueError("quadratic form is unbounded below")
    lam = [Fraction(0)] * dim
    for r, col in enumerate(pivot_cols):
        lam[col] = rows[r][dim]
    point = tuple(lam)
    return eval_form(form, point), point


def integer_rows(forms: Sequence[QuadraticForm]) -> list[tuple[int, ...]]:
    """Each form as one integer row over (1, extended coordinates).

    A row lists the form's constant, its lam_i coefficients, then its
    lam_i lam_j coefficients (i <= j, lexicographic), the off-diagonal ones
    doubled because lam^T P lam counts lam_i lam_j twice.  All rows share
    one positive scale, so their values at (1, lam, lam_i lam_j) order the
    forms exactly as the forms' values at lam do.
    """
    raw = [
        (
            form.s0,
            *form.r,
            *(
                form.p[i][j] if i == j else 2 * form.p[i][j]
                for i in range(form.dim)
                for j in range(i, form.dim)
            ),
        )
        for form in forms
    ]
    scale = math.lcm(*(v.denominator for row in raw for v in row))
    return [tuple(v.numerator * (scale // v.denominator) for v in row) for row in raw]


def _support_forms(base: ReducedProblem, pieces):
    """All residual forms: entry [i][j] lists (support, form) for block i, size j."""
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
