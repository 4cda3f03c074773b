"""Exact linear programming over the rationals.

A small dense two-phase simplex with Bland's rule, enough to decide strict
feasibility of a sign pattern over a hyperplane arrangement.  Everything is
Fraction arithmetic; there is no tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Row = list[Fraction]


class _Tableau:
    def __init__(self, matrix: list[Row], rhs: Row, objective: Row) -> None:
        self.m = len(matrix)
        self.n = len(objective)
        self.a = matrix
        self.b = rhs
        self.c = objective
        self.basis: list[int] = []
        self.obj_shift = Fraction(0)

    def _pivot(self, row: int, col: int) -> None:
        piv = self.a[row][col]
        inv = Fraction(1) / piv
        self.a[row] = [x * inv for x in self.a[row]]
        self.b[row] *= inv
        for r in range(self.m):
            if r != row and self.a[r][col] != 0:
                f = self.a[r][col]
                self.a[r] = [x - f * y for x, y in zip(self.a[r], self.a[row])]
                self.b[r] -= f * self.b[row]
        if self.c[col] != 0:
            f = self.c[col]
            self.c = [x - f * y for x, y in zip(self.c, self.a[row])]
            self.obj_shift += f * self.b[row]
        self.basis[row] = col

    def maximize(self) -> None:
        """Run simplex to optimality with Bland's anti-cycling rule."""
        while True:
            col = next((j for j in range(self.n) if self.c[j] > 0), None)
            if col is None:
                return
            best_row = None
            best_ratio: Optional[Fraction] = None
            for r in range(self.m):
                if self.a[r][col] > 0:
                    ratio = self.b[r] / self.a[r][col]
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[r] < self.basis[best_row])
                    ):
                        best_ratio = ratio
                        best_row = r
            if best_row is None:
                raise ValueError("unbounded linear program")
            self._pivot(best_row, col)


def solve_lp(
    columns: int,
    eq_rows: Sequence[Sequence[Fraction]],
    eq_rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
) -> Optional[tuple[Fraction, list[Fraction]]]:
    """Maximize objective . z subject to eq_rows z = eq_rhs, z >= 0.

    Returns (optimal value, optimizer) or None when infeasible.  Raises
    ValueError when unbounded.
    """
    m = len(eq_rows)
    a = [list(map(Fraction, row)) for row in eq_rows]
    b = list(map(Fraction, eq_rhs))
    for r in range(m):
        if b[r] < 0:
            a[r] = [-x for x in a[r]]
            b[r] = -b[r]

    # Phase 1: artificials, maximize -(their sum).
    matrix = [row + [Fraction(1) if i == r else Fraction(0) for i in range(m)] for r, row in enumerate(a)]
    phase1_c = [Fraction(0)] * columns + [Fraction(-1)] * m
    tab = _Tableau(matrix, b, list(phase1_c))
    tab.basis = [columns + r for r in range(m)]
    for r in range(m):
        tab.c = [x + y for x, y in zip(tab.c, tab.a[r])]
        tab.obj_shift -= tab.b[r]
    tab.maximize()
    artificial_sum = sum(tab.b[r] for r in range(m) if tab.basis[r] >= columns)
    if artificial_sum != 0:
        return None

    # Drive any artificial still in the basis out, or drop its row.
    keep = list(range(m))
    for r in range(m):
        if tab.basis[r] >= columns:
            col = next((j for j in range(columns) if tab.a[r][j] != 0), None)
            if col is not None:
                tab._pivot(r, col)
            else:
                keep.remove(r)
    matrix2 = [tab.a[r][:columns] for r in keep]
    rhs2 = [tab.b[r] for r in keep]
    basis2 = [tab.basis[r] for r in keep]

    tab2 = _Tableau(matrix2, rhs2, list(map(Fraction, objective)))
    tab2.obj_shift = Fraction(0)
    tab2.basis = basis2
    for r, col in enumerate(tab2.basis):
        if tab2.c[col] != 0:
            f = tab2.c[col]
            tab2.c = [x - f * y for x, y in zip(tab2.c, tab2.a[r])]
            tab2.obj_shift += f * tab2.b[r]
    tab2.maximize()

    solution = [Fraction(0)] * columns
    for r, col in enumerate(tab2.basis):
        if col < columns:
            solution[col] = tab2.b[r]
    return tab2.obj_shift, solution


def strict_sign_witness(
    normals: Sequence[Sequence[Fraction]],
    offsets: Sequence[Fraction],
    signs: Sequence[int],
) -> Optional[list[Fraction]]:
    """A rational point with sign(normals[i] . x + offsets[i]) == signs[i] for all i.

    Strict on every constraint.  Returns None when the open region is empty.
    The margin variable is capped to keep the program bounded.
    """
    dim = len(normals[0]) if normals else 0
    if not normals:
        return [Fraction(0)] * dim

    # Variables: u_j, v_j (x_j = u_j - v_j), delta, slack per constraint,
    # plus one slack for the delta <= 1 cap.
    n_ineq = len(normals)
    cols = 2 * dim + 1 + n_ineq + 1
    delta_col = 2 * dim
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    for i, (w, c0, s) in enumerate(zip(normals, offsets, signs)):
        if s == 0:
            raise ValueError("strict witness needs nonzero signs")
        row = [Fraction(0)] * cols
        for j in range(dim):
            row[j] = Fraction(s) * Fraction(w[j])
            row[dim + j] = -Fraction(s) * Fraction(w[j])
        row[delta_col] = Fraction(-1)
        row[delta_col + 1 + i] = Fraction(-1)
        rows.append(row)
        rhs.append(-Fraction(s) * Fraction(c0))

    cap = [Fraction(0)] * cols
    cap[delta_col] = Fraction(1)
    cap[delta_col + 1 + n_ineq] = Fraction(1)
    rows.append(cap)
    rhs.append(Fraction(1))

    objective = [Fraction(0)] * cols
    objective[delta_col] = Fraction(1)
    result = solve_lp(cols, rows, rhs, objective)
    if result is None:
        return None
    value, z = result
    if value <= 0:
        return None
    return [z[j] - z[dim + j] for j in range(dim)]
