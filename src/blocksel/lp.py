"""Exact strict feasibility of a sign pattern over a hyperplane arrangement.

The open region {x : s_i (a_i . x + c_i) > 0} is nonempty exactly when the
homogeneous system s_i (a_i . x + c_i t) >= 1, t >= 1 has a solution
z = (x, t), and then x / t lies strictly inside the region.  One phase-1
simplex decides that system.  Each row is scaled to primitive integers,
so a row repeated at a positive multiple enters once, and the tableau
stays integer: it keeps one common denominator, the previous pivot, and
every division by it is exact (Edmonds, J. Res. NBS 1967; Bareiss,
Math. Comp. 1968).  Bland's rule prevents cycling.  There is no tolerance
anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


def strict_sign_witness(
    normals: Sequence[Sequence[Fraction]],
    offsets: Sequence[Fraction],
    signs: Sequence[int],
) -> Optional[list[Fraction]]:
    """A rational point with sign(normals[i] . x + offsets[i]) == signs[i] for all i.

    Strict on every constraint.  Returns None when the open region is empty.
    """
    if not normals:
        return []
    dim = len(normals[0])

    # A positive multiple of a row bounds the same open half-space, so each
    # integer row is kept in primitive form and only its first occurrence.
    rows: dict[tuple[int, ...], None] = {}
    for w, c0, s in zip(normals, offsets, signs):
        if s == 0:
            raise ValueError("strict witness needs nonzero signs")
        values = [Fraction(v) * s for v in (*w, c0)]
        scale = math.lcm(*(v.denominator for v in values))
        ints = [int(v * scale) for v in values]
        g = math.gcd(*ints) or 1
        rows[tuple(v // g for v in ints)] = None
    rows[(0,) * dim + (1,)] = None

    # Row i of the tableau reads a_i + sum_j T[i][j] y_j = T[i][-1], over
    # the free z (columns 0..dim) and the surplus w >= 0 of R z - w = 1.
    # Every entry is denom times its value.  The artificial a_i starts basic,
    # numbered after every column; once it leaves, it is dropped, so its
    # column is never stored.
    m, free = len(rows), dim + 1
    tab = [[*row, *(-int(i == r) for i in range(m)), 1] for r, row in enumerate(rows)]
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
        # A free basic variable never leaves.
        pivot = min(
            (r for r in range(m) if tab[r][col] > 0 and basis[r] >= free),
            key=lambda r: (Fraction(tab[r][-1], tab[r][col]), basis[r]),
        )
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
