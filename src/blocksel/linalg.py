"""Exact rational least squares, and residual forms as integer rows.

The free parameters (written lam here) are the coefficients that escape the
cardinality budget after the coupling reduction: the intercept coefficient and
the coupling coefficients pinned to the support.  Per-block residuals are
quadratic forms in lam; comparisons between such forms are linear over the
extended coordinates (lam followed by all monomials lam_i * lam_j with
i <= j), so residual_quadratic writes each form once as an integer row over
(1, extended coordinates) with a positive scale, which is what every
comparison consumes, and quadratic_minimum takes the exact minimum of such a
row.  Both rest on one kernel, eliminate: fraction-free symmetric
elimination of an integer positive-semidefinite matrix (Bareiss, Math.
Comp. 1968).

All arithmetic is exact: over fractions.Fraction, or in integers.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .model import InvariantError, RatMatrix

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


def eliminate(matrix: list[list[int]], count: int) -> tuple[list[list[int]], int]:
    """Fraction-free symmetric elimination of the first count variables.

    matrix is an integer positive-semidefinite matrix, reduced in place:
    step k replaces every entry (i, j) with i, j > k by
    (p m_ij - m_ik m_kj) / d, with p = m_kk the pivot and d the previous
    one, and the division is exact (Bareiss, Math. Comp. 1968); row k keeps
    the entries it pivoted with.  A zero pivot is skipped, since under
    semidefiniteness its row is zero; a zero pivot with a nonzero row raises
    InvariantError.  Returns the trailing block, which is d times the Schur
    complement of the eliminated variables, and d, the last nonzero pivot
    (1 if there is none).
    """
    size = len(matrix)
    d = 1
    for k in range(count):
        prow = matrix[k]
        p = prow[k]
        if p == 0:
            if any(prow[k + 1 :]):
                raise InvariantError(
                    f"zero pivot {k} with a nonzero row: the matrix is not semidefinite"
                )
            continue
        tail = prow[k + 1 :]
        for i in range(k + 1, size):
            row = matrix[i]
            f = row[k]
            row[k + 1 :] = [(p * x - f * y) // d for x, y in zip(row[k + 1 :], tail)]
        d = p
    return [row[count:] for row in matrix[count:]], d


def residual_quadratic(
    block: RatMatrix,
    b_piece: Sequence[Fraction],
    lambda_pieces: Sequence[Sequence[Fraction]],
    support: Sequence[int],
) -> tuple[tuple[int, ...], int]:
    """Squared distance from p(lam) = b - sum_l lambda_l * col_l to span(A[:, support]).

    Returned as (row, scale): the distance at lam is
    row . (1, lam, lam_i lam_j for i <= j) / scale, with scale > 0.  The
    columns [A_S | Lambda | -b], scaled to integers by one factor L, have a
    Gram matrix G with z^T G z = L^2 |A_S x + Lambda lam - b|^2 at
    z = (x, lam, 1); eliminating x leaves the trailing block T over
    (lam, 1), d L^2 times the residual's form, with d the last pivot.  The
    row reads T's constant, the lam_i terms 2 T_i1, then T_ii and, for
    i < j, 2 T_ij (lam^T P lam counts lam_i lam_j twice).  Works for any
    support, including rank-deficient ones.
    """
    cols = [block.column(c) for c in support] + [*lambda_pieces, b_piece]
    factor = math.lcm(*(v.denominator for col in cols for v in col))
    ints = [[v.numerator * (factor // v.denominator) for v in col] for col in cols]
    ints[-1] = [-v for v in ints[-1]]
    size = len(ints)
    gram = [[0] * size for _ in range(size)]
    for i, u in enumerate(ints):
        for j in range(i, size):
            gram[i][j] = gram[j][i] = sum(map(operator.mul, u, ints[j]))
    trail, pivot = eliminate(gram, len(support))
    k = len(lambda_pieces)
    row = [trail[k][k], *(2 * trail[i][k] for i in range(k))]
    for i in range(k):
        row.append(trail[i][i])
        row.extend(2 * trail[i][j] for j in range(i + 1, k))
    return tuple(row), pivot * factor * factor


def quadratic_minimum(
    row: Sequence[int], k: int, scale: int
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact global minimum of row . (1, lam, lam_i lam_j) / scale over lam.

    row must be a semidefinite form over (lam, 1), such as a sum of
    residual_quadratic rows at one scale.  It is written as the integer
    matrix B = 2 A over (lam, 1), A the form's symmetric matrix; eliminating
    the k lam pivots leaves E = d * 2 * scale * minimum, d the last pivot.
    The minimizer comes by back substitution through the pivot rows, with
    free variables (zero pivots) set to zero.  A form that is not
    semidefinite raises InvariantError.
    """
    b = [[0] * (k + 1) for _ in range(k + 1)]
    b[k][k] = 2 * row[0]
    terms = iter(row[1 + k :])
    for i in range(k):
        b[i][k] = b[k][i] = row[1 + i]
        b[i][i] = 2 * next(terms)
        for j in range(i + 1, k):
            b[i][j] = b[j][i] = next(terms)
    ((energy,),), pivot = eliminate(b, k)
    lam = [Fraction(0)] * k
    for i in reversed(range(k)):
        if b[i][i]:
            rest = b[i][k] + sum(b[i][j] * lam[j] for j in range(i + 1, k))
            lam[i] = Fraction(-rest, b[i][i])
    return Fraction(energy, 2 * pivot * scale), tuple(lam)


def extended_dim(k_prime: int) -> int:
    """Number of extended coordinates for k_prime free parameters."""
    return k_prime + k_prime * (k_prime + 1) // 2
