import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference_model

from blocksel.model import (
    BlockStructure,
    Instance,
    RatMatrix,
    ReducedProblem,
    format_rational,
    make_solution,
    parse_rational,
    residual_norm2,
    validate,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def test_parse_rational_accepts_common_shapes():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("-2/7") == Fraction(-2, 7)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(Fraction(5, 3)) == Fraction(5, 3)


def test_parse_rational_refuses_exponents_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_rational("2.5E-3") == Fraction(1, 400)
    for text in ("1e1000000000", "-1e-1000000000", "0e1000000000", f"1e{limit + 2}"):
        with pytest.raises(ValueError, match=f"more than {limit} digits"):
            parse_rational(text)


def test_parse_rational_rejects_floats_and_garbage():
    with pytest.raises(ValueError):
        parse_rational(0.1)
    with pytest.raises(ValueError):
        parse_rational("three")


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-2, 7)) == "-2/7"
    assert format_rational(Fraction(0)) == "0"


@given(rationals)
def test_format_parse_round_trip(value):
    assert parse_rational(format_rational(value)) == value


def test_rat_matrix_layout():
    m = RatMatrix.from_rows([[1, 2], ["1/3", 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.at(1, 0) == Fraction(1, 3)
    assert m.column(1) == (Fraction(2), Fraction(4))
    assert m.to_rows() == [
        [Fraction(1), Fraction(2)],
        [Fraction(1, 3), Fraction(4)],
    ]


def test_block_structure_theta():
    s = BlockStructure(2, (2, 2))
    assert s.theta == 2
    # (theta - 1) * theta * (theta + 1) / 2
    assert s.theta_bar == 3
    assert BlockStructure(3, (1, 1, 1)).theta_bar == 0


def test_validate_consistent_instance():
    inst = Instance.build(blocks=[[[1]], [[1]]], b=[1, 2], sigma=1)
    assert validate(inst) == []


def test_validate_names_violations():
    inst = Instance.build(blocks=[[[1]], [[1]]], b=[1, 2, 3], sigma=1)
    assert any("b has length" in p for p in validate(inst))
    inst = Instance.build(blocks=[[[1]], [[1]]], b=[1, 2], sigma=7)
    assert any("exceeds the variable count" in p for p in validate(inst))


def test_residual_norm2_and_solution():
    # diag(1, 2), b = (3, 4): zeroing x keeps |b|^2.
    inst = Instance.build(blocks=[[[1]], [[2]]], b=[3, 4], sigma=1)
    assert residual_norm2(inst, [Fraction(0), Fraction(0)], None) == 25
    sol = make_solution(inst, [Fraction(0), Fraction(2)], None, {1})
    assert sol.objective == 9
    assert sol.support == (1,)


def _case(entries, coupling, intercept, x, mu):
    """An instance of blocks 2x1 and 1x2 with the given columns, x and mu."""
    a, b, c, d, e, f = entries
    inst = Instance.build(
        blocks=[[[a], [b]], [[c, d]]],
        coupling=coupling,
        intercept=intercept,
        b=[e, f, a - f],
        sigma=0,
    )
    return inst, [Fraction(v) for v in x], mu


@st.composite
def residual_cases(draw):
    """A random instance of up to three blocks, x and mu."""
    sizes = st.integers(1, 2)
    shapes = draw(st.lists(st.tuples(sizes, sizes), min_size=1, max_size=3))
    m = sum(rows for rows, _ in shapes)
    column = st.lists(rationals, min_size=m, max_size=m)
    inst = Instance.build(
        blocks=[
            [draw(st.lists(rationals, min_size=cols, max_size=cols)) for _ in range(rows)]
            for rows, cols in shapes
        ],
        coupling=draw(st.lists(column, max_size=2)),
        intercept=draw(st.one_of(st.none(), column)),
        b=draw(column),
        sigma=0,
    )
    x = draw(
        st.one_of(
            st.just([Fraction(0)] * inst.d),
            st.lists(rationals, min_size=inst.d, max_size=inst.d),
        )
    )
    mu = None if inst.intercept is None else draw(st.one_of(st.just(Fraction(0)), rationals))
    return inst, x, mu


@given(residual_cases())
# No intercept; mu = 0; x all zero; nonzero coupling coefficients.
@example(_case((1, 2, 3, 4, 5, 6), [], None, (1, 0, Fraction(2, 3)), None))
@example(_case((1, 2, 3, 4, 5, 6), [], [1, 1, 1], (1, -1, 2), Fraction(0)))
@example(_case((Fraction(1, 2), 2, 3, 4, 5, 6), [[1, 2, 3]], [1, 1, 1], (0,) * 4, Fraction(1, 5)))
@example(
    _case(
        (1, 2, Fraction(3, 7), 4, 5, 6),
        [[1, 0, 3], [Fraction(1, 3), 1, 1]],
        None,
        (1, 0, 2, Fraction(-5, 4), 7),
        None,
    )
)
def test_integer_residual_equals_the_fraction_sum(case):
    inst, x, mu = case
    assert residual_norm2(inst, x, mu) == reference_model.residual_norm2(inst, x, mu)


def test_make_solution_rejects_uncovered_support():
    inst = Instance.build(blocks=[[[1]], [[2]]], b=[3, 4], sigma=1)
    with pytest.raises(ValueError):
        make_solution(inst, [Fraction(1), Fraction(2)], None, {1})


def test_reduced_problem_takes_one_distinct_tag_per_column():
    # The solver finds a subproblem's columns in its form table by tag.
    blocks = Instance.build(blocks=[[[1]]]).blocks
    col = (Fraction(1),)
    for cols, tags in (((col,), ()), ((col, col), ("mu", "mu")), ((col, col), (0, 0))):
        with pytest.raises(ValueError, match="one distinct tag per lambda column"):
            ReducedProblem(blocks, (Fraction(1),), cols, tags, 0)
    assert ReducedProblem(blocks, (Fraction(1),), (col, col), ("mu", 0), 0).k_prime == 2


def test_instance_counts():
    inst = Instance.build(
        blocks=[[[1, 2]], [[3]]],
        coupling=[[1, 1]],
        intercept=[1, 1],
        b=[0, 0],
        sigma=2,
    )
    assert (inst.h, inst.m_total, inst.n_total, inst.k, inst.d) == (2, 2, 3, 1, 4)
    assert inst.intercept is not None
    assert inst.structure().n_vec == (2, 1)
