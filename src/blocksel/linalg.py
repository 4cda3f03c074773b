"""Exact rational linear algebra and quadratic forms in the free parameters.

The free parameters (written lam here) are the coefficients that escape the
cardinality budget after the coupling reduction: the intercept coefficient and
the coupling coefficients pinned to the support.  Per-block residuals are
quadratic forms in lam; comparisons between such forms are linear over the
extended coordinates (lam followed by all monomials lam_i * lam_j with
i <= j), so integer_rows writes each form once as an integer row over
(1, extended coordinates), which is what every comparison consumes.

All arithmetic is exact: over fractions.Fraction, or in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import RatMatrix

Vector = tuple[Fraction, ...]


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


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


def solve_linear_system(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve a nonsingular square system exactly.

    Fraction-free style elimination with full pivoting: at every step the
    largest-magnitude entry of the remaining submatrix is chosen as pivot,
    which keeps the elimination deterministic and robust to zero pivots.
    Raises ValueError if the matrix is singular.
    """
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    col_perm = list(range(n))
    for step in range(n):
        best_r, best_c, best_val = -1, -1, Fraction(0)
        for r in range(step, n):
            for c in range(step, n):
                v = abs(a[r][c])
                if v > best_val:
                    best_r, best_c, best_val = r, c, v
        if best_val == 0:
            raise ValueError("singular system")
        a[step], a[best_r] = a[best_r], a[step]
        if best_c != step:
            for row in a:
                row[step], row[best_c] = row[best_c], row[step]
            col_perm[step], col_perm[best_c] = col_perm[best_c], col_perm[step]
        piv = a[step][step]
        for r in range(step + 1, n):
            factor = a[r][step] / piv
            if factor:
                for c in range(step, n + 1):
                    a[r][c] -= factor * a[step][c]
    x = [Fraction(0)] * n
    for step in range(n - 1, -1, -1):
        acc = a[step][n]
        for c in range(step + 1, n):
            acc -= a[step][c] * x[c]
        x[step] = acc / a[step][step]
    out = [Fraction(0)] * n
    for pos, orig in enumerate(col_perm):
        out[orig] = x[pos]
    return out


def least_squares(
    columns: Sequence[Sequence[Fraction]], y: Sequence[Fraction]
) -> tuple[list[Fraction], Fraction]:
    """Exact least squares min |A x - y|^2 over the given columns.

    Dependent columns (in input order) receive coefficient 0, which makes the
    minimizer deterministic even when A is rank deficient.  Returns the
    coefficient vector and the exact squared residual.
    """
    kept: list[int] = []
    basis: list[Vector] = []
    for idx, col in enumerate(columns):
        u = [Fraction(x) for x in col]
        for w in basis:
            coeff = _dot(u, w) / _dot(w, w)
            if coeff:
                for i in range(len(u)):
                    u[i] -= coeff * w[i]
        if any(u):
            kept.append(idx)
            basis.append(tuple(u))
    x = [Fraction(0)] * len(columns)
    if kept:
        gram = [
            [_dot(columns[i], columns[j]) for j in kept] for i in kept
        ]
        rhs = [_dot(columns[i], y) for i in kept]
        sol = solve_linear_system(gram, rhs)
        for pos, idx in enumerate(kept):
            x[idx] = sol[pos]
    res2 = _dot(y, y)
    for w in basis:
        proj = _dot(y, w)
        if proj:
            res2 -= proj * proj / _dot(w, w)
    return x, res2


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


def extended_dim(k_prime: int) -> int:
    """Number of extended coordinates for k_prime free parameters."""
    return k_prime + k_prime * (k_prime + 1) // 2


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
