"""Exact strict feasibility of an open polyhedron.

The open region {x : c_i + a_i . x > 0}, each constraint an integer row
(c_i, a_i), is nonempty exactly when the homogeneous system
a_i . x + c_i t >= 1, t >= 1 has a solution z = (x, t), and then x / t
lies strictly inside the region.  One phase-1 simplex decides that system.
Each row is divided by its content, so a row repeated at a positive
multiple enters once, and the tableau stays integer: it keeps one common
denominator, the previous pivot, and every division by it is exact
(Edmonds, J. Res. NBS 1967; Bareiss, Math. Comp. 1968).  Bland's rule
prevents cycling.  There is no tolerance anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


def strict_sign_witness(rows: Sequence[Sequence[int]]) -> Optional[list[Fraction]]:
    """A rational point x with row[0] + row[1:] . x > 0 for every row.

    Returns None when the open region is empty.
    """
    if not rows:
        return []
    dim = len(rows[0]) - 1

    # A positive multiple of a row bounds the same open half-space, so each
    # row is kept in primitive form and only its first occurrence; the
    # program reads it as (a_i, c_i).
    program: dict[tuple[int, ...], None] = {}
    for row in rows:
        g = math.gcd(*row) or 1
        program[(*(v // g for v in row[1:]), row[0] // g)] = None
    program[(0,) * dim + (1,)] = None

    # Row i of the tableau reads a_i + sum_j T[i][j] y_j = T[i][-1], over
    # the free z (columns 0..dim) and the surplus w >= 0 of R z - w = 1.
    # Every entry is denom times its value.  The artificial a_i starts basic,
    # numbered after every column; once it leaves, it is dropped, so its
    # column is never stored.
    m, free = len(program), dim + 1
    tab = [
        [*row, *(-int(i == r) for i in range(m)), 1] for r, row in enumerate(program)
    ]
    basis = [free + m + r for r in range(m)]
    sign = [1] * free
    denom = 1

    while True:
        artificial = [r for r in range(m) if basis[r] >= free + m]
        if not any(tab[r][-1] for r in artificial):
            break
        # Bland: the lowest column whose increase lowers the artificial sum.
        for col in range(free + m):
            gain = sum(tab[r][col] for r in artificial)
            if gain > 0 or (gain < 0 and col < free):
                break
        else:
            return None
        if gain < 0:
            sign[col] = -1
            for row in tab:
                row[col] = -row[col]
        # Ratio test: the least tab[r][-1] / tab[r][col], ties to the lowest
        # basic variable, compared by cross-multiplication since the
        # pivot-column entries are positive.  A free basic variable never
        # leaves.
        pivot = -1
        for r in range(m):
            x = tab[r][col]
            if x > 0 and basis[r] >= free:
                if pivot >= 0:
                    lhs, rhs = tab[r][-1] * tab[pivot][col], tab[pivot][-1] * x
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[pivot]):
                        continue
                pivot = r
        p, prow = tab[pivot][col], tab[pivot]
        for r in range(m):
            if r != pivot:
                f = tab[r][col]
                tab[r] = [(p * x - f * y) // denom for x, y in zip(tab[r], prow)]
        denom = p
        basis[pivot] = col

    z = [Fraction(0)] * free
    for r, col in enumerate(basis):
        if col < free:
            z[col] = Fraction(sign[col] * tab[r][-1], denom)
    return [v / z[dim] for v in z[:dim]]
