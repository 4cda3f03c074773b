import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

import reference_lp
from blocksel.lp import strict_sign_witness
from reference_arrangement import signed_rows

coords = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=3
)


def test_open_quadrant_witness():
    point = strict_sign_witness([(0, 1, 0), (0, 0, 1)])
    assert point is not None
    assert point[0] > 0 and point[1] > 0


def test_contradictory_signs_infeasible():
    assert strict_sign_witness([(0, 1), (0, -1)]) is None


def test_thin_slab():
    # 0 < x < 1/1000: feasible but narrow.
    point = strict_sign_witness([(0, 1), (1, -1000)])
    assert point is not None
    assert 0 < point[0] < Fraction(1, 1000)


def test_ratio_ties_leave_by_the_lowest_basic_variable():
    # Rows c + a . x > 0.  The ratio test ties here, and Bland's rule sends
    # the lowest basic variable out; sending the highest instead ends at
    # (3/5, 2/5).
    rows = [(0, 2, -2), (1, 0, 1), (2, 2, -1), (1, 0, -2), (1, -2, 1)]
    assert strict_sign_witness(rows) == [0, Fraction(-1, 2)]


def test_no_constraints_returns_origin():
    assert strict_sign_witness([]) == []


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
    point = strict_sign_witness(signed_rows(normals, offsets, signs))
    assert point is not None
    for w, c0, s in zip(normals, offsets, signs):
        value = sum(a * b for a, b in zip(w, point)) + c0
        assert value * s > 0


def _random_system(rng, dim):
    """Rows with repeated, opposite and zero normals and random signs."""
    normals, offsets = [], []
    for _ in range(rng.randint(1, 7)):
        roll = rng.random()
        if normals and roll < 0.25:
            k = rng.randrange(len(normals))
            factor = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
            w = [factor * v for v in normals[k]]
        elif roll < 0.35:
            w = [Fraction(0)] * dim
        else:
            w = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
        c0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if not any(w) and c0 == 0:
            c0 = Fraction(1)
        normals.append(w)
        offsets.append(c0)
    signs = [rng.choice((1, -1)) for _ in normals]
    return normals, offsets, signs


def test_seeded_sweep_agrees_with_the_two_phase_reference():
    # Each system's rows carry their signs.  It is solved again with every
    # row appended at a positive multiple; a repeated row enters the
    # program once, so the point is the same.
    rng = random.Random(20181)
    factors = random.Random(20182)
    answers = {True: 0, False: 0}
    for _ in range(600):
        normals, offsets, signs = _random_system(rng, rng.randint(1, 4))
        point = strict_sign_witness(signed_rows(normals, offsets, signs))
        want = reference_lp.strict_sign_witness(normals, offsets, signs)
        assert (point is None) == (want is None)
        scaled = [Fraction(factors.randint(1, 5), factors.randint(1, 3)) for _ in signs]
        repeated = strict_sign_witness(
            signed_rows(
                normals + [[f * v for v in w] for f, w in zip(scaled, normals)],
                offsets + [f * c0 for f, c0 in zip(scaled, offsets)],
                signs + signs,
            )
        )
        assert repeated == point
        answers[point is not None] += 1
        if point is not None:
            for w, c0, s in zip(normals, offsets, signs):
                assert s * (sum(a * b for a, b in zip(w, point)) + c0) > 0
    assert min(answers.values()) > 100
