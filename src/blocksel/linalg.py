"""Exact rational least squares, and residual forms as integer rows.

The free parameters (written lam here) are the coefficients that escape the
cardinality budget after the coupling reduction: the intercept coefficient and
the coupling coefficients pinned to the support.  Per-block residuals are
quadratic forms in lam; comparisons between such forms are linear over the
extended coordinates (lam followed by all monomials lam_i * lam_j with
i <= j), so residual_quadratic writes each form once as an integer row over
(1, extended coordinates) with a positive scale, every support of a block
from one Gram matrix; every comparison consumes these rows, and
quadratic_minimum takes the exact minimum of such a row as an integer ratio.
Everything rests on one kernel, eliminate: fraction-free symmetric
elimination of an integer positive-semidefinite matrix (Bareiss, Math.
Comp. 1968), which least_squares also applies to the Gram matrix of its
columns.

All arithmetic is in integers.  Fractions are built only for what a caller
keeps: least_squares's coefficients and residual, and the minimizer of the
one form that quadratic_minimizer is asked for.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

from .model import InvariantError, RatMatrix


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


def _target_gram(columns: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Integer Gram matrix of the columns with the last one negated.

    The columns hold ints or Fractions; one factor L, the lcm of every
    denominator, brings them all to integers.  Returns the Gram matrix G of
    L [c_1 ... c_{n-1} | -c_n], so z^T G z = L^2 |sum_i z_i c_i - c_n|^2 at
    z = (z_1 ... z_{n-1}, 1), and L.
    """
    factor = math.lcm(*(v.denominator for col in columns for v in col))
    ints = [[v.numerator * (factor // v.denominator) for v in col] for col in columns]
    ints[-1] = [-v for v in ints[-1]]
    size = len(ints)
    gram = [[0] * size for _ in range(size)]
    for i, u in enumerate(ints):
        for j in range(i, size):
            gram[i][j] = gram[j][i] = sum(map(operator.mul, u, ints[j]))
    return gram, factor


def _back_substitute(matrix: list[list[int]], count: int, pivot: int) -> list[int]:
    """pivot times the minimizer over the eliminated variables, the last fixed at 1.

    matrix is what eliminate(matrix, count) left with pivot its last
    nonzero pivot: row i < count holds the entries it pivoted with, so the
    minimizer z, with z_count = 1, has sum_{j >= i} m_ij z_j = 0.  A zero
    pivot is a free variable, set to 0.  pivot is the determinant of the
    kept variables' block, so pivot * z is integral (Cramer's rule) and
    every division is exact.
    """
    z = [0] * count
    for i in reversed(range(count)):
        row = matrix[i]
        if row[i]:
            rest = sum(map(operator.mul, row[i + 1 : count], z[i + 1 :]))
            z[i] = -(pivot * row[count] + rest) // row[i]
    return z


def least_squares(
    columns: Sequence[Sequence], y: Sequence
) -> tuple[list[Fraction], Fraction]:
    """Exact least squares min |A x - y|^2 over the given columns.

    The columns and y (ints or Fractions) are scaled to integers by one
    factor L, and eliminating the columns' variables from the Gram matrix
    of [A | -y] leaves d L^2 times the squared residual, d the last nonzero
    pivot; x comes by back substitution.  A column that depends on earlier
    ones (in input order) has a zero pivot and receives coefficient 0,
    which makes the minimizer deterministic even when A is rank deficient.
    Returns the coefficient vector and the exact squared residual.
    """
    count = len(columns)
    gram, factor = _target_gram([*columns, y])
    ((energy,),), pivot = eliminate(gram, count)
    x = [Fraction(v, pivot) for v in _back_substitute(gram, count, pivot)]
    return x, Fraction(energy, pivot * factor * factor)


def residual_quadratic(
    block: RatMatrix,
    b_piece: Sequence[Fraction],
    lambda_pieces: Sequence[Sequence[Fraction]],
) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
    """Squared distance from p(lam) = b - sum_l lambda_l * col_l to span(A[:, S]), per S.

    Maps each support S, by size and then lexicographically, to
    (row, scale): the distance at lam is row . (1, lam, lam_i lam_j for
    i <= j) / scale, with scale > 0.  The columns [A | Lambda | -b], scaled
    to integers by one factor L, have a Gram matrix G with
    z^T G z = L^2 |A x + Lambda lam - b|^2 at z = (x, lam, 1); eliminating
    x_S from G's principal block over (x_S, lam, 1) leaves the trailing
    block T over (lam, 1), d L^2 times the residual's form, with d the last
    pivot.  The row reads T's constant, the lam_i terms 2 T_i1, then T_ii
    and, for i < j, 2 T_ij (lam^T P lam counts lam_i lam_j twice).  Each
    entry of T depends on its own row, its own column and S alone, so with
    only some lambda columns free the row is this one at their monomials.
    Works for any support, including rank-deficient ones.
    """
    n, k = block.cols, len(lambda_pieces)
    gram, factor = _target_gram([*map(block.column, range(n)), *lambda_pieces, b_piece])
    tail = range(n, n + k + 1)
    table = {}
    for size in range(n + 1):
        for support in itertools.combinations(range(n), size):
            keep = [*support, *tail]
            trail, pivot = eliminate([[gram[r][c] for c in keep] for r in keep], size)
            row = [trail[k][k], *(2 * trail[i][k] for i in range(k))]
            for i in range(k):
                row.append(trail[i][i])
                row.extend(2 * trail[i][j] for j in range(i + 1, k))
            table[support] = (tuple(row), pivot * factor * factor)
    return table


def _form_matrix(row: Sequence[int], k: int) -> list[list[int]]:
    """B = 2 A over (lam, 1), A the symmetric matrix of row's form."""
    b = [[0] * (k + 1) for _ in range(k + 1)]
    b[k][k] = 2 * row[0]
    terms = iter(row[1 + k :])
    for i in range(k):
        b[i][k] = b[k][i] = row[1 + i]
        b[i][i] = 2 * next(terms)
        for j in range(i + 1, k):
            b[i][j] = b[j][i] = next(terms)
    return b


def quadratic_minimum(row: Sequence[int], k: int, scale: int) -> tuple[int, int]:
    """Exact global minimum of row . (1, lam, lam_i lam_j) / scale over lam.

    row must be a semidefinite form over (lam, 1), such as a sum of
    residual_quadratic rows at one scale.  It is written as the integer
    matrix B = 2 A over (lam, 1), A the form's symmetric matrix; eliminating
    the k lam pivots leaves E = d * 2 * scale * minimum, d the last pivot.
    Returns the minimum as the integer ratio (E, 2 d scale) in lowest
    terms, denominator positive.  A form that is not semidefinite raises
    InvariantError.
    """
    ((energy,),), pivot = eliminate(_form_matrix(row, k), k)
    den = 2 * pivot * scale
    g = math.gcd(energy, den)
    return energy // g, den // g


def quadratic_minimizer(row: Sequence[int], k: int) -> tuple[Fraction, ...]:
    """The lam at which quadratic_minimum's minimum is reached.

    Back substitution through the same pivot rows, free variables (zero
    pivots) set to zero; the scale does not move the minimizer.
    """
    b = _form_matrix(row, k)
    _, pivot = eliminate(b, k)
    return tuple(Fraction(v, pivot) for v in _back_substitute(b, k, pivot))


def extended_dim(k_prime: int) -> int:
    """Number of extended coordinates for k_prime free parameters."""
    return k_prime + k_prime * (k_prime + 1) // 2
