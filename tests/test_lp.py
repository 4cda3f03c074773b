from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from blocksel.lp import strict_sign_witness

coords = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=3
)


def test_open_quadrant_witness():
    point = strict_sign_witness(
        [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))],
        [Fraction(0), Fraction(0)],
        [1, 1],
    )
    assert point is not None
    assert point[0] > 0 and point[1] > 0


def test_contradictory_signs_infeasible():
    assert (
        strict_sign_witness(
            [(Fraction(1),), (Fraction(1),)],
            [Fraction(0), Fraction(0)],
            [1, -1],
        )
        is None
    )


def test_thin_slab():
    # 0 < x < 1/1000: feasible but narrow.
    point = strict_sign_witness(
        [(Fraction(1),), (Fraction(1),)],
        [Fraction(0), Fraction(-1, 1000)],
        [1, -1],
    )
    assert point is not None
    assert 0 < point[0] < Fraction(1, 1000)


def test_no_constraints_returns_origin():
    assert strict_sign_witness([], [], []) == []


@given(
    st.integers(1, 3),
    st.lists(st.lists(coords, min_size=3, max_size=3), min_size=1, max_size=5),
    st.lists(coords, min_size=3, max_size=3),
)
def test_witness_matches_interior_point_signs(dim, raw_normals, raw_center):
    """Any sign pattern realized by a concrete point must be found, strictly."""
    center = [Fraction(v) for v in raw_center[:dim]]
    normals = []
    offsets = []
    signs = []
    for row in raw_normals:
        w = [Fraction(v) for v in row[:dim]]
        value = sum(a * b for a, b in zip(w, center))
        if value == 0:
            # Shift the plane so the center is strictly off it.
            offs = Fraction(1)
        else:
            offs = Fraction(0)
        s = 1 if value + offs > 0 else -1
        normals.append(w)
        offsets.append(offs)
        signs.append(s)
    point = strict_sign_witness(normals, offsets, signs)
    assert point is not None
    for w, c0, s in zip(normals, offsets, signs):
        value = sum(a * b for a, b in zip(w, point)) + c0
        assert value * s > 0
