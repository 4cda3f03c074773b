from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import blocksel.arrangement as arrangement
import reference_arrangement
from blocksel.arrangement import argmin_regions
from blocksel.model import BudgetExceededError, InvariantError
from reference_arrangement import (
    Hyperplane,
    LinearFunctional,
    enumerate_cells,
    ext,
    merge_hyperplanes,
    predicted_cell_bound,
    row_value,
    sign_at,
)

coords = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)


def functional(coeffs, const):
    return LinearFunctional(
        tuple(Fraction(c) for c in coeffs), Fraction(const)
    )


def plane(coeffs, const):
    return Hyperplane(functional=functional(coeffs, const))


def moment_planes(ts, dim):
    """A provably simple arrangement: normals on the moment curve."""
    planes = []
    for t in ts:
        coeffs = tuple(Fraction(t) ** j for j in range(dim))
        planes.append(Hyperplane(functional=LinearFunctional(coeffs, -Fraction(t) ** dim)))
    return planes


def test_ext_univariate():
    assert ext((Fraction(5),)) == (5, 25)


def test_ext_bivariate():
    assert ext((Fraction(2), Fraction(3))) == (2, 3, 4, 6, 9)


def test_ext_zero():
    assert ext((Fraction(0), Fraction(0))) == (0, 0, 0, 0, 0)


def test_sign_at_tracks_functional():
    func = functional((1, 0), -1)  # lam - 1 on ext coordinates (lam, lam^2)
    assert sign_at(func, ext((Fraction(5),))) == 1
    assert sign_at(func, ext((Fraction(1),))) == 0
    assert sign_at(func, ext((Fraction(0),))) == -1


def test_sign_at_dimension_mismatch():
    with pytest.raises(ValueError):
        sign_at(functional((1,), 0), (Fraction(1), Fraction(2)))


def test_two_generic_lines_make_four_cells():
    cells = enumerate_cells([plane((1, 0), 0), plane((0, 1), 0)], 2)
    assert len(cells) == 4
    assert {c.signs for c in cells} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_three_generic_lines_make_seven_cells():
    planes = [plane((1, 0), 0), plane((0, 1), 0), plane((1, 1), -1)]
    assert len(enumerate_cells(planes, 2)) == 7


def test_parallel_planes_make_slabs():
    planes = [plane((1, 0), -Fraction(i)) for i in range(4)]
    assert len(enumerate_cells(planes, 2)) == 5


def test_witnesses_are_strict():
    planes = [plane((1, 0), 0), plane((0, 1), 0), plane((1, 1), -1), plane((1, -2), 3)]
    for cell in enumerate_cells(planes, 2):
        for hp, s in zip(planes, cell.signs):
            assert sign_at(hp.functional, cell.witness) == s


def test_budget_refusal_is_upfront():
    planes = [plane((1, 0), 0), plane((0, 1), 0)]
    with pytest.raises(BudgetExceededError):
        enumerate_cells(planes, 2, max_cells=3)


def test_a_cell_with_no_side_of_a_plane_through_its_witness_is_refused(monkeypatch):
    # The first cell's witness, the origin, lies on the plane x = 0; a
    # program that finds neither side loses the cell.
    monkeypatch.setattr(reference_arrangement, "strict_sign_witness", lambda *args: None)
    with pytest.raises(InvariantError, match="cell lost"):
        enumerate_cells([plane((1, 0), 0)], 2)


def _strictly_inside(region, point):
    return all(row_value(row, point) > 0 for row in region)


def _by_label(rows, base, witness):
    """argmin_regions over rows labelled by their index, as {label: (region, point)}."""
    found = argmin_regions(enumerate(rows), base, witness)
    assert [label for label, _, _ in found] == sorted(label for label, _, _ in found)
    return {label: (region, point) for label, region, point in found}


def test_argmin_regions_split_the_line_by_the_smallest_functional():
    # On the line: x is smallest for x < 0, -x for x > 0; 0 never is.
    rows = [(0, 1), (0, -1), (0, 0)]
    found = _by_label(rows, [], (Fraction(2),))
    assert 2 not in found
    for i, want in ((0, -1), (1, 1)):
        region, point = found[i]
        assert (point[0] > 0) - (point[0] < 0) == want
        assert _strictly_inside(region, point)
        assert all(
            row_value(rows[i], point) < row_value(r, point) for j, r in enumerate(rows) if j != i
        )


def test_argmin_regions_respect_the_base_polyhedron():
    rows = [(0, 1), (0, -1)]
    base = [(-1, 1)]  # x > 1
    found = _by_label(rows, base, (Fraction(3),))
    assert 0 not in found
    region, point = found[1]
    assert region[0] == base[0] and point == (Fraction(3),)


def test_argmin_regions_settle_inherited_and_constant_cases_without_a_program(
    monkeypatch,
):
    calls = []
    real = arrangement.strict_sign_witness

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(arrangement, "strict_sign_witness", counting)
    # x + 1 is below x + 2 everywhere; only the third row needs a program,
    # because it loses at the witness x = 0 but wins for x < -1.
    rows = [(1, 1), (2, 1), (2, 2)]
    found = _by_label(rows, [], (Fraction(0),))
    assert found[0][1] == (Fraction(0),)
    assert 1 not in found
    assert 2 in found and found[2][1][0] < -1
    assert len(calls) == 1


def test_argmin_regions_keep_the_first_label_of_equal_rows():
    # -x and x split the line; the second copy of -x is never a region.
    found = argmin_regions([("a", (0, -1)), ("b", (0, 1)), ("c", (0, -1))], [], (Fraction(2),))
    assert [label for label, _, _ in found] == ["a", "b"]
    assert found[0][2] == (Fraction(2),)
    assert found[1][2][0] < 0


def test_predicted_cell_bound():
    assert predicted_cell_bound(2, 2) == 4
    assert predicted_cell_bound(3, 2) == 7
    assert predicted_cell_bound(8, 3) == 93


def test_merge_collapses_scaled_twins():
    merged = merge_hyperplanes(
        [
            functional((2, 0), -2),
            functional((1, 0), -1),
            functional((-3, 0), 3),
        ]
    )
    assert len(merged) == 1


def test_merge_drops_zero_functionals():
    assert merge_hyperplanes([functional((0, 0), 0)]) == []


def test_generic_count_identity_moment_curve():
    for dim, n in ((2, 5), (3, 6), (1, 4)):
        ts = [Fraction(i + 1, 1) for i in range(n)]
        cells = enumerate_cells(moment_planes(ts, dim), dim)
        assert len(cells) == predicted_cell_bound(n, dim)


@given(
    st.integers(1, 3),
    st.lists(
        st.tuples(st.lists(coords, min_size=3, max_size=3), coords),
        min_size=1,
        max_size=4,
    ),
    st.lists(coords, min_size=3, max_size=3),
)
def test_closed_cells_cover_every_point(dim, raw_planes, raw_point):
    planes = merge_hyperplanes(
        [functional(coeffs[:dim], const) for coeffs, const in raw_planes]
    )
    cells = enumerate_cells(planes, dim)
    point = tuple(Fraction(v) for v in raw_point[:dim])
    covered = False
    for cell in cells:
        if all(
            sign_at(hp.functional, point) in (0, s)
            for hp, s in zip(planes, cell.signs)
        ):
            covered = True
            break
    assert covered
