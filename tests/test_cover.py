import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import blocksel.cover as cover_module
from blocksel.cover import (
    MAX_CONICS,
    conic_cover_points,
    split_rational_lines,
    vanishes_somewhere,
)
from blocksel.model import BudgetExceededError, InvariantError
from blocksel.roots import (
    ipoly_eval_sign,
    ipoly_normalize,
    ipoly_primitive,
    isolate_real_roots,
    sort_unique_roots,
)
from reference_arrangement import (
    LinearFunctional,
    enumerate_cells,
    merge_hyperplanes,
    sign_at,
)
import reference_cover
import reference_roots
from reference_roots import library_samples as separating_samples
from reference_cover import conic_from_form, split_family
from reference_forms import QuadraticForm

coords = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=2
)

small_ints = st.integers(-3, 3)


def functional(coeffs, const):
    return LinearFunctional(
        tuple(Fraction(c) for c in coeffs), Fraction(const)
    )


def form2(a, b, c, d, e, f):
    """Two-variable form a x^2 + b xy + c y^2 + d x + e y + f."""
    half_b = Fraction(b, 2)
    return QuadraticForm(
        2,
        ((Fraction(a), half_b), (half_b, Fraction(c))),
        (Fraction(d), Fraction(e)),
        Fraction(f),
    )


def cover(forms):
    """conic_cover_points on the conics of two-variable forms."""
    return conic_cover_points([conic_from_form(form) for form in forms])


def conic_value(conic, point):
    a, b, c, d, e, f = conic
    x, y = point
    return a * x * x + b * x * y + c * y * y + d * x + e * y + f


def sign(v):
    return (v > 0) - (v < 0)


def form1(c2, c1, c0):
    """The one-parameter form c2 x^2 + c1 x + c0, read in the plane."""
    return form2(c2, 0, 0, c1, 0, c0)


def line_form(f):
    """The functional a*x + b*y + c as a two-variable form, for the conic cover."""
    zero = Fraction(0)
    return QuadraticForm(2, ((zero, zero), (zero, zero)), f.coeffs, f.const)


def test_single_line_both_sides():
    pts = cover([line_form(functional((1, -1), 0))])
    signs = {sign(p[0] - p[1]) for p in pts}
    assert signs == {1, -1}


def test_empty_line_family():
    assert cover([]) == [(0, 0)]
    assert cover([line_form(functional((0, 0), 5))]) == [(0, 0)]


def test_line_cover_rejects_wrong_dimension():
    # The row (0, 1, 0) of lambda_1 in one parameter is not yet a conic.
    with pytest.raises(ValueError):
        conic_cover_points([(0, 1, 0)])


def test_line_cover_hits_every_cell():
    funcs = [
        functional((1, 0), 0),
        functional((0, 1), 0),
        functional((1, 1), -1),
        functional((2, -1), 1),
    ]
    planes = merge_hyperplanes(funcs)
    cells = enumerate_cells(planes, 2)
    pts = cover([line_form(f) for f in funcs])
    realized = {
        tuple(sign_at(hp.functional, pt) for hp in planes) for pt in pts
    }
    assert 0 not in {s for vec in realized for s in vec}
    assert {cell.signs for cell in cells} <= realized


@given(
    st.lists(
        st.tuples(small_ints, small_ints, small_ints).filter(
            lambda t: t[0] != 0 or t[1] != 0
        ),
        min_size=1,
        max_size=4,
    )
)
def test_line_cover_matches_arrangement(raw):
    funcs = [functional((a, b), c) for a, b, c in raw]
    planes = merge_hyperplanes(funcs)
    cells = enumerate_cells(planes, 2)
    pts = cover([line_form(f) for f in funcs])
    for f in funcs:
        for pt in pts:
            assert f.eval(pt) != 0
    realized = {
        tuple(sign_at(hp.functional, pt) for hp in planes) for pt in pts
    }
    assert {cell.signs for cell in cells} <= realized


def test_conic_from_form_normalizes():
    conic = conic_from_form(form2(1, 1, 1, 0, 0, -1))
    assert conic == (1, 1, 1, 0, 0, -1)
    tripled = conic_from_form(form2(3, 3, 3, 0, 0, -3))
    assert tripled == conic
    flipped = conic_from_form(form2(-1, 0, 0, 0, 0, 1))
    assert flipped == (1, 0, 0, 0, 0, -1)


def test_conic_from_form_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        z = Fraction(0)
        conic_from_form(QuadraticForm(3, ((z, z, z),) * 3, (z, z, z), z))


def test_vanishes_somewhere_cases():
    assert vanishes_somewhere(conic_from_form(form2(1, -2, 1, 0, 0, 0)))
    assert not vanishes_somewhere(conic_from_form(form2(1, 0, 0, 0, 0, 1)))
    assert not vanishes_somewhere(conic_from_form(form2(1, 0, 1, 0, 0, 1)))
    assert vanishes_somewhere(conic_from_form(form2(1, 0, 1, 0, 0, 0)))
    assert vanishes_somewhere(conic_from_form(form2(0, 1, 0, 0, 0, 0)))
    assert vanishes_somewhere(conic_from_form(form2(0, 0, 0, 1, 1, 0)))
    assert not vanishes_somewhere((0, 0, 0, 0, 0, 1))


def test_split_difference_of_squares():
    parts = split_rational_lines((1, 0, -1, 0, 0, 0))
    assert set(parts) == {(0, 0, 0, 1, 1, 0), (0, 0, 0, 1, -1, 0)}


def test_split_perfect_square():
    parts = split_rational_lines((1, -2, 1, 0, 0, 0))
    assert set(parts) == {(0, 0, 0, 1, -1, 0)}


def test_split_leaves_irreducibles_alone():
    circle = (1, 0, 1, 0, 0, -1)
    assert split_rational_lines(circle) == [circle]
    hyperbola = (0, 1, 0, 0, 0, -1)
    assert split_rational_lines(hyperbola) == [hyperbola]


def test_split_axes_product():
    parts = split_rational_lines((0, 1, 0, 0, 0, 0))
    assert set(parts) == {(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)}


def random_conic(rng):
    """An integer conic with a random coefficient pattern.

    Products of two lines, half of them without y^2, make the split take
    both its branches; the other draws zero c, a, b or all three.
    """
    kind = rng.randrange(6)
    if kind == 0:
        (p1, q1, r1), (p2, q2, r2) = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(2))
        if rng.random() < 0.5:
            q1 = 0
        return (p1 * p2, p1 * q2 + q1 * p2, q1 * q2, p1 * r2 + r1 * p2, q1 * r2 + r1 * q2, r1 * r2)
    conic = [rng.randint(-3, 3) for _ in range(6)]
    for index in {1: (2,), 2: (0,), 3: (1,), 4: (0, 1, 2)}.get(kind, ()):
        conic[index] = 0
    return tuple(conic)


def test_cover_helpers_answer_as_the_former_ones():
    rng = random.Random(14)
    conics = [random_conic(rng) for _ in range(600)]
    split_on_x = 0
    for conic in conics:
        assert vanishes_somewhere(conic) == reference_cover.vanishes_somewhere(conic)
        parts = split_rational_lines(conic)
        assert parts == reference_cover.split_rational_lines(conic)
        split_on_x += conic[2] == 0 and conic[0] != 0 and len(parts) == 2
    assert split_on_x > 10
    # Every ordered pair of members with y, across quadratic and linear ones.
    with_y = [c for c in conics[:120] if cover_module._y_degree(c)]
    degrees = set()
    for c1, c2 in itertools.permutations(with_y, 2):
        degrees.add((cover_module._y_degree(c1), cover_module._y_degree(c2)))
        assert ipoly_primitive(cover_module._resultant_in_y(c1, c2)) == ipoly_primitive(
            reference_cover._resultant_in_y(c1, c2)
        )
    assert degrees == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_conic_cover_circle_and_line():
    circle = form2(1, 0, 1, 0, 0, -1)
    line = form2(0, 0, 0, -1, 1, 0)
    pts = cover([circle, line])
    family = [conic_from_form(circle), conic_from_form(line)]
    realized = {
        tuple(sign(conic_value(c, pt)) for c in family) for pt in pts
    }
    assert realized == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_conic_cover_parabola():
    pts = cover([form2(-1, 0, 0, 0, 1, 0)])
    values = {sign(conic_value((1, 0, 0, 0, -1, 0), pt)) for pt in pts}
    assert values == {1, -1}


def test_conic_cover_reads_conics_at_any_scale():
    circle = (1, 0, 1, 0, 0, -1)
    assert conic_cover_points([(-3, 0, -3, 0, 0, 3)]) == conic_cover_points([circle])


def test_conic_cover_drops_never_vanishing():
    pts = cover([form2(1, 0, 1, 0, 0, 1)])
    assert pts == [(0, 0)]


def test_conic_cover_budget():
    forms = [form2(0, 0, 0, 0, 1, -i) for i in range(MAX_CONICS + 1)]
    with pytest.raises(BudgetExceededError):
        cover(forms)


def test_conic_cover_budget_counts_only_members_with_y():
    # Members without y pair up in no resultant: one point per strip.
    forms = [form1(0, 1, -i) for i in range(MAX_CONICS + 1)]
    assert len(cover(forms)) == MAX_CONICS + 2


def test_members_meeting_on_a_sample_line_are_an_invariant_error(monkeypatch):
    # Without their resultant root, the lines y = x and y = -x meet on the
    # only sample line, x = 0, where a sign vector cannot be told apart.
    monkeypatch.setattr(cover_module, "_resultant_in_y", lambda c1, c2: (1,))
    with pytest.raises(InvariantError, match="share a root"):
        conic_cover_points([(0, 0, 0, 1, -1, 0), (0, 0, 0, 1, 1, 0)])


def test_y_free_single_comparison():
    # (1 - x)^2 - x^2 = 1 - 2 x
    pts = cover([form1(0, -2, 1)])
    assert len(pts) == 2
    assert pts[0][0] < Fraction(1, 2) < pts[1][0]
    assert {y for _, y in pts} == {0}


def test_y_free_diagonal_breakpoints():
    # b = (1, 0), coupling (1, -1): lines 1 - x, -x, and their
    # difference and sum 1 - 2 x and 1 (a dropped constant).
    pts = cover([form1(0, -1, 1), form1(0, -1, 0), form1(0, -2, 1)])
    xs = [x for x, _ in pts]
    assert len(xs) == 4
    assert xs[0] < 0 < xs[1] < Fraction(1, 2) < xs[2] < 1 < xs[3]


def test_y_free_definite_form_has_no_breakpoints():
    assert cover([form1(1, 0, 1)]) == [(0, 0)]


def test_y_free_constant_form_contributes_nothing():
    assert cover([form1(0, 0, 7)]) == [(0, 0)]


@given(
    st.lists(
        st.tuples(coords, coords, coords).filter(lambda t: any(v != 0 for v in t)),
        min_size=1,
        max_size=4,
    )
)
def test_y_free_signs_constant_per_interval(raw_forms):
    # The forms' signs are constant between consecutive distinct roots, so
    # the sign vectors over the intervals, read at independent separating
    # samples, are every sign condition; the cover has one point for each.
    forms = [form1(a, b, c) for a, b, c in raw_forms]
    roots = []
    for coeffs in raw_forms:
        den = math.lcm(*(v.denominator for v in coeffs))
        poly = ipoly_normalize([int(v * den) for v in reversed(coeffs)])
        if len(poly) > 1:
            roots.extend(isolate_real_roots(poly))

    def signs(x):
        return tuple(sign(a * x * x + b * x + c) for a, b, c in raw_forms)

    family = split_family([conic_from_form(form) for form in forms])

    def component_signs(x):
        return tuple(sign(conic_value(c, (x, 0))) for c in family)

    samples = separating_samples(sort_unique_roots(roots))
    pts = cover(forms)
    assert [x for x, _ in pts] == sorted({x for x, _ in pts})
    assert {y for _, y in pts} == {0}
    for pt in pts:
        assert 0 not in signs(pt[0])
    assert {signs(x) for x, _ in pts} == {signs(x) for x in samples}
    # Sign vectors are told apart over the forms' components: the square
    # x^2 keeps one sign where its component x has two.
    got = [component_signs(x) for x, _ in pts]
    assert len(set(got)) == len(got)
    assert set(got) == {component_signs(x) for x in samples}


def line_family(params):
    """Lines a x + b y + c, without y when params is 1."""
    b = small_ints if params == 2 else st.just(0)
    return st.lists(
        st.tuples(small_ints, b, small_ints).map(lambda t: (0, 0, 0, *t)),
        min_size=1,
        max_size=5,
    )


def conic_family(params):
    """Conics a x^2 + b xy + c y^2 + d x + e y + f, without y when params is 1."""
    y = small_ints if params == 2 else st.just(0)
    return st.lists(
        st.tuples(small_ints, y, y, small_ints, y, small_ints),
        min_size=1,
        max_size=3 if params == 2 else 4,
    )


@pytest.mark.parametrize("make", [line_family, conic_family])
@pytest.mark.parametrize("params", [1, 2])
@given(data=st.data())
def test_one_point_per_sign_condition_of_the_reference(make, params, data):
    # The reference samples every interval of every strip of the same
    # decomposition, so its sign vectors are every sign condition.
    conics = data.draw(make(params))
    family = split_family(conics)
    pts = conic_cover_points(conics)
    reference = reference_cover.conic_cover_points(conics)
    got = [tuple(sign(conic_value(c, pt)) for c in family) for pt in pts]
    assert len(set(got)) == len(got)
    assert set(got) == {
        tuple(sign(conic_value(c, pt)) for c in family) for pt in reference
    }
    if params == 1:
        assert {y for _, y in pts} == {0}


@given(
    st.lists(
        st.tuples(
            small_ints, small_ints, small_ints,
            small_ints, small_ints, small_ints,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_conic_cover_is_strict_and_complete(raw):
    forms = [form2(*t) for t in raw]
    family = split_family([conic_from_form(form) for form in forms])
    pts = cover(forms)
    for c in family:
        for pt in pts:
            assert conic_value(c, pt) != 0
    if not family:
        return
    realized = {
        tuple(sign(conic_value(c, pt)) for c in family) for pt in pts
    }
    # Every strict sign vector seen on a coarse grid must be realized.
    grid = [Fraction(n, 2) for n in range(-7, 8)]
    for x in grid:
        for y in grid:
            vec = tuple(sign(conic_value(c, (x, y))) for c in family)
            if 0 in vec:
                continue
            assert vec in realized


def exact_order_spy(monkeypatch):
    """Count the cover's exact surd comparisons."""
    calls = []
    library_cmp = cover_module.surd_cmp

    def spy(x, y):
        calls.append((x, y))
        return library_cmp(x, y)

    monkeypatch.setattr(cover_module, "surd_cmp", spy)
    return calls


def test_a_surd_next_to_a_close_rational_is_ordered_exactly(monkeypatch):
    # A Pell convergent p/q of sqrt(2) from below, q > 2^40, agrees with
    # sqrt(2) to about 81 bits: the brackets at PRECISION bits meet, and
    # the sample between the two needs them at 128.
    p, q = 1, 1
    while q <= 1 << 40 or p * p - 2 * q * q != -1:
        p, q = p + 2 * q, p + q
    assert 0 < Fraction(2) - Fraction(p, q) ** 2 < Fraction(1, 1 << 80)
    calls = exact_order_spy(monkeypatch)
    family = [(0, 0, 1, 0, 0, -2), (0, 0, 0, 0, q, -p)]
    pts = conic_cover_points(family)
    assert calls
    got = [tuple(sign(conic_value(c, pt)) for c in family) for pt in pts]
    assert 0 not in {s for vec in got for s in vec}
    # Below -sqrt(2), between -sqrt(2) and p/q, between p/q and sqrt(2), above.
    assert sorted(got) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert cover_module.surd_bracket((p, 0, 0, q))[1] >= cover_module.surd_bracket((0, 1, 2, 1))[0]


def test_two_surds_agreeing_past_64_bits_are_ordered_exactly(monkeypatch):
    # sqrt(2) and sqrt(2 r^2 + 1) / r differ by about 1 / (2 sqrt(2) r^2).
    r = 1 << 40
    low, high = (0, 1, 2, 1), (0, 1, 2 * r * r + 1, r)
    assert cover_module.surd_bracket(low, 64)[1] >= cover_module.surd_bracket(high, 64)[0]
    assert cover_module.surd_cmp(low, high) == -1
    assert cover_module.surd_cmp(high, low) == 1
    calls = exact_order_spy(monkeypatch)
    family = [(0, 0, 1, 0, 0, -2), (0, 0, r * r, 0, 0, -(2 * r * r + 1))]
    pts = conic_cover_points(family)
    assert calls
    got = [tuple(sign(conic_value(c, pt)) for c in family) for pt in pts]
    assert sorted(got) == [(-1, -1), (1, -1), (1, 1)]


@given(
    st.lists(
        st.tuples(small_ints, small_ints, small_ints, small_ints, small_ints, small_ints),
        min_size=1,
        max_size=4,
    ),
    st.integers(-9, 9),
    st.integers(1, 7),
)
def test_line_roots_order_and_samples_match_the_fraction_reference(family, n, m):
    # On the line lambda_1 = n / m every member is an integer quadratic or
    # line in lambda_2; the reference isolates each one with Fraction
    # intervals and sorts them with its cmp.  A member that vanishes on the
    # whole line, or has a double root there, sits on a critical value,
    # which no sample line meets.
    polys = []
    for a, b, c, d, e, f in family:
        poly = ipoly_normalize(((a * n + d * m) * n + f * m * m, (b * n + e * m) * m, c * m * m))
        assume(poly and (len(poly) != 3 or poly[1] ** 2 != 4 * poly[0] * poly[2]))
        polys.append(poly)
    tagged = [
        (root, bit)
        for bit, poly in enumerate(polys)
        if len(poly) > 1
        for root in reference_roots.isolate_real_roots(poly)
    ]
    tagged.sort(key=functools.cmp_to_key(lambda x, y: x[0].cmp(y[0])))
    shared = any(x.cmp(y) == 0 for (x, _), (y, _) in zip(tagged, tagged[1:]))
    if shared:
        with pytest.raises(InvariantError, match="share a root"):
            cover_module._line_roots(family, n, m)
        return
    label, got = cover_module._line_roots(family, n, m)
    assert [bit for *_, bit in got] == [bit for _, bit in tagged]

    def signs(y):
        return tuple(ipoly_eval_sign(poly, y) for poly in polys)

    bounds = [None, *tagged, None]
    surds = [None, *(surd for _, _, surd, _ in got), None]
    for i in range(len(bounds) - 1):
        below, above = bounds[i], bounds[i + 1]
        expected = reference_roots.sample_between(below and below[0], above and above[0])
        yn, yj = cover_module.surd_between(surds[i], surds[i + 1])
        sample = Fraction(yn, 1 << yj)
        assert 0 not in signs(sample)
        assert signs(sample) == signs(expected)
    top = signs(reference_roots.sample_between(tagged[-1][0] if tagged else None, None))
    assert label == sum(1 << bit for bit, s in enumerate(top) if s > 0)
