import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import blocksel.solver as solver
import reference_forms
from blocksel.linalg import (
    eliminate,
    extended_dim,
    least_squares,
    quadratic_minimizer,
    quadratic_minimum,
    residual_quadratic,
)
from blocksel.model import InvariantError, RatMatrix, ReducedProblem
from reference_arrangement import (
    LinearFunctional,
    canonical,
    ext,
    form_add,
    row_value,
)
from reference_forms import (
    QuadraticForm,
    _support_forms,
    eval_form,
    integer_rows,
    orthogonalize,
)

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)


def frac(v):
    return Fraction(v)


def row_form_value(row, scale, lam):
    """A residual row's value at lam, divided by its scale."""
    return row_value(row, ext(lam)) / scale


def vecs(length, count):
    return st.lists(
        st.lists(rationals, min_size=length, max_size=length),
        min_size=count,
        max_size=count,
    )


def test_orthogonalize_keeps_orthogonal_input():
    basis = orthogonalize([(frac(1), frac(0)), (frac(0), frac(1))])
    assert basis == [(1, 0), (0, 1)]


def test_orthogonalize_projects_second_vector():
    basis = orthogonalize([(frac(1), frac(1)), (frac(1), frac(0))])
    assert basis == [(1, 1), (Fraction(1, 2), Fraction(-1, 2))]


def test_orthogonalize_drops_dependent():
    basis = orthogonalize([(frac(1), frac(1)), (frac(2), frac(2))])
    assert len(basis) == 1


@given(st.integers(1, 4).flatmap(lambda m: vecs(m, 3)))
def test_orthogonalize_pairwise_dots_vanish(vectors):
    basis = orthogonalize([[Fraction(v) for v in vec] for vec in vectors])
    for u, w in itertools.combinations(basis, 2):
        assert sum(a * b for a, b in zip(u, w)) == 0


def test_least_squares_invertible():
    x, res2 = least_squares([(frac(1), frac(0)), (frac(0), frac(1))], (frac(3), frac(4)))
    assert x == [3, 4]
    assert res2 == 0


def test_least_squares_mean():
    x, res2 = least_squares([(frac(1), frac(1))], (frac(0), frac(2)))
    assert x == [1]
    assert res2 == 2


def test_least_squares_rank_deficient_zeroes_dropped_column():
    cols = [(frac(1), frac(1)), (frac(1), frac(1))]
    x, res2 = least_squares(cols, (frac(0), frac(2)))
    assert res2 == 2
    assert x == [1, 0]


def test_least_squares_equals_the_gram_schmidt_reference():
    # 0-4 columns of length 1-6, each drawn, zero, a repeat, a scaled
    # duplicate or a combination of earlier ones, so rank deficiency is
    # common; every other draw passes ints instead of Fractions.  The
    # fraction-free x and residual equal the Gram-Schmidt ones exactly.
    rng = random.Random(1968)
    seen = set()
    for trial in range(600):
        ints = trial % 2 == 1

        def entry():
            if ints:
                return rng.randint(-5, 5)
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

        m = rng.randint(1, 6)
        cols = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(("drawn", "drawn", "zero", "repeat", "scaled", "combo"))
            if kind in ("repeat", "scaled") and cols:
                factor = 1 if kind == "repeat" else rng.choice((-2, 3))
                col = [factor * v for v in rng.choice(cols)]
            elif kind == "combo" and len(cols) >= 2:
                u, w = rng.sample(cols, 2)
                a, b = entry(), entry()
                col = [a * p + b * q for p, q in zip(u, w)]
            elif kind == "zero":
                col = [0 * entry() for _ in range(m)]
            else:
                kind = "drawn"
                col = [entry() for _ in range(m)]
            seen.add(kind)
            cols.append(col)
        seen.add(("columns", len(cols)))
        seen.add(("length", m))
        y = [entry() for _ in range(m)]
        x, res2 = least_squares(cols, y)
        assert (x, res2) == reference_forms.least_squares(cols, y)
        assert all(isinstance(v, Fraction) for v in (*x, res2))
    assert seen >= {"drawn", "zero", "repeat", "scaled", "combo"}
    assert seen >= {("columns", c) for c in range(5)}
    assert seen >= {("length", m) for m in range(1, 7)}


@given(
    st.integers(1, 3).flatmap(
        lambda m: st.tuples(
            vecs(m, 2),
            st.lists(rationals, min_size=m, max_size=m),
            st.integers(1, 2),
            rationals,
            rationals,
            st.integers(0, 2),
        )
    )
)
def test_least_squares_normal_equations(data):
    # One or two drawn columns, then a zero column inserted among them and
    # a combination of them last: 3-4 columns, the last two forced
    # dependent on earlier ones.
    base, y, count, a, b, at = data
    cols = [[Fraction(v) for v in c] for c in base[:count]]
    combo = [a * u + b * v for u, v in zip(cols[0], cols[-1])]
    at = min(at, count)
    cols.insert(at, [Fraction(0)] * len(y))
    cols.append(combo)
    y = [Fraction(v) for v in y]
    x, res2 = least_squares(cols, y)
    assert x[at] == 0
    assert x[-1] == 0
    resid = list(y)
    for coeff, col in zip(x, cols):
        for i in range(len(resid)):
            resid[i] -= coeff * col[i]
    # A^T (A x - y) = 0 certifies the minimum.
    for col in cols:
        assert sum(a * b for a, b in zip(col, resid)) == 0
    assert sum(v * v for v in resid) == res2


def test_residual_quadratic_empty_support():
    blk = RatMatrix.from_rows([[1]])
    row, scale = residual_quadratic(blk, (frac(1),), [(frac(1),)])[()]
    # (1 - lam)^2
    assert row_form_value(row, scale, (frac(0),)) == 1
    assert row_form_value(row, scale, (frac(1),)) == 0
    # Constant, lam, lam^2.
    assert row == (1, -2, 1)
    assert scale == 1


def test_residual_quadratic_full_square_block():
    blk = RatMatrix.from_rows([[1]])
    row, scale = residual_quadratic(blk, (frac(1),), [(frac(1),)])[(0,)]
    assert not any(row)
    assert scale > 0


def test_residual_quadratic_column_block():
    blk = RatMatrix.from_rows([[1], [1]])
    row, scale = residual_quadratic(blk, (frac(0), frac(2)), [(frac(1), frac(0))])[(0,)]
    # (lam^2 + 4 lam + 4) / 2, zero at lam = -2.
    assert row_form_value(row, scale, (frac(-2),)) == 0
    for lam in (frac(-2), frac(0), frac(1), frac(3)):
        target = (-lam, frac(2))
        _, res2 = least_squares([blk.column(0)], target)
        assert row_form_value(row, scale, (lam,)) == res2


def test_eval_form_at_zero_is_constant_term():
    form = QuadraticForm(1, ((frac(1),),), (frac(-2),), frac(1))
    assert eval_form(form, (frac(0),)) == form.s0


def test_eval_form_dimension_mismatch():
    z = Fraction(0)
    form = QuadraticForm(2, ((z, z), (z, z)), (z, z), z)
    with pytest.raises(ValueError):
        eval_form(form, (frac(1),))


@given(
    st.integers(1, 2),
    st.integers(1, 3),
    st.data(),
)
def test_residual_quadratic_matches_least_squares(k, n, data):
    m = data.draw(st.integers(1, 3))
    rows = data.draw(vecs(n, m))
    blk = RatMatrix.from_rows(rows)
    b_piece = tuple(Fraction(v) for v in data.draw(st.lists(rationals, min_size=m, max_size=m)))
    pieces = [
        tuple(Fraction(v) for v in data.draw(st.lists(rationals, min_size=m, max_size=m)))
        for _ in range(k)
    ]
    support = tuple(
        sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
    )
    row, scale = residual_quadratic(blk, b_piece, pieces)[support]
    lam = tuple(Fraction(v) for v in data.draw(st.lists(rationals, min_size=k, max_size=k)))
    target = list(b_piece)
    for coeff, piece in zip(lam, pieces):
        for i in range(m):
            target[i] -= coeff * piece[i]
    _, res2 = least_squares([blk.column(c) for c in support], target)
    assert row_form_value(row, scale, lam) == res2


def symmetric_form(k, entries, r, s0):
    p = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            p[i][j] = p[j][i] = Fraction(entries[i][j])
    return QuadraticForm(k, tuple(map(tuple, p)), tuple(map(Fraction, r)), Fraction(s0))


def test_linearize_univariate():
    form = QuadraticForm(1, ((frac(1),),), (frac(-2),), frac(1))
    # Rows read (1, lam, lam^2).
    assert integer_rows([form]) == [(1, -2, 1)]


def test_linearize_zero_form():
    z = Fraction(0)
    assert integer_rows([QuadraticForm(2, ((z, z), (z, z)), (z, z), z)]) == [(0,) * 6]


def test_linearize_merges_off_diagonal():
    half = Fraction(1, 2)
    form = QuadraticForm(2, ((frac(0), half), (half, frac(0))), (frac(0), frac(0)), frac(0))
    # Coordinates: 1, lam1, lam2, lam1^2, lam1 lam2, lam2^2.
    assert integer_rows([form]) == [(0, 0, 0, 0, 1, 0)]


def test_integer_rows_order_the_coefficients():
    # s0 = 1; r = (2, 3, 4); P has diagonal 5, 6, 7 and off-diagonal 8, 9, 10.
    form = symmetric_form(3, [[5, 8, 9], [0, 6, 10], [0, 0, 7]], (2, 3, 4), 1)
    # 1 | lam1 lam2 lam3 | lam1^2 lam1lam2 lam1lam3 lam2^2 lam2lam3 lam3^2
    assert integer_rows([form]) == [(1, 2, 3, 4, 5, 16, 18, 6, 20, 7)]
    assert len(integer_rows([form])[0]) == 1 + extended_dim(3)


def test_integer_rows_share_one_positive_scale():
    halves = symmetric_form(1, [[Fraction(1, 2)]], (Fraction(-1, 3),), 0)
    one = symmetric_form(1, [[0]], (0,), 1)
    assert integer_rows([halves, one]) == [(0, -2, 3), (6, 0, 0)]
    assert integer_rows([]) == []


@given(st.integers(1, 2), st.data())
def test_linearize_consistent_with_eval(k, data):
    entries = data.draw(vecs(k, k))
    r = data.draw(st.lists(rationals, min_size=k, max_size=k))
    form = symmetric_form(k, entries, r, data.draw(rationals))
    lam = tuple(Fraction(v) for v in data.draw(st.lists(rationals, min_size=k, max_size=k)))
    # The constant form 1 reads the common scale off its own row.
    row, one = integer_rows([form, symmetric_form(k, [[0] * k] * k, [0] * k, 1)])
    assert row_value(row, ext(lam)) == one[0] * eval_form(form, lam)


def test_integer_rows_order_supports_as_eval_form():
    rng = random.Random(2018)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    for k in range(4):
        for _ in range(40):
            forms = [
                symmetric_form(
                    k,
                    [[entry() for _ in range(k)] for _ in range(k)],
                    [entry() for _ in range(k)],
                    entry(),
                )
                for _ in range(4)
            ]
            forms.append(forms[0])
            rows = integer_rows(forms)
            for _ in range(5):
                lam = tuple(entry() for _ in range(k))
                by_row = [row_value(row, ext(lam)) for row in rows]
                by_form = [eval_form(form, lam) for form in forms]
                for i, j in itertools.combinations(range(len(forms)), 2):
                    assert (by_row[i] < by_row[j]) == (by_form[i] < by_form[j])
                    assert (by_row[i] == by_row[j]) == (by_form[i] == by_form[j])


def test_quadratic_minimum_shifted_square():
    # (lam - 2)^2 = lam^2 - 4 lam + 4, as the row (4, -4, 1).
    value = Fraction(*quadratic_minimum((4, -4, 1), 1, 1))
    point = quadratic_minimizer((4, -4, 1), 1)
    assert value == 0
    assert point == (2,)


def test_quadratic_minimum_strictly_positive():
    assert (
        Fraction(*quadratic_minimum((1, 0, 1), 1, 1)),
        quadratic_minimizer((1, 0, 1), 1),
    ) == (1, (0,))
    # The same form at scale 3 reads a third of it.
    assert (
        Fraction(*quadratic_minimum((1, 0, 1), 1, 3)),
        quadratic_minimizer((1, 0, 1), 1),
    ) == (Fraction(1, 3), (0,))


def test_quadratic_minimum_unbounded_raises():
    # lam alone is not semidefinite over (lam, 1).
    with pytest.raises(InvariantError):
        quadratic_minimum((0, 1, 0), 1, 1)


def test_extended_dim():
    assert extended_dim(0) == 0
    assert extended_dim(1) == 2
    assert extended_dim(2) == 5
    assert extended_dim(3) == 9


def test_functional_canonical():
    func = LinearFunctional((Fraction(-2, 3), Fraction(4, 3)), Fraction(-2))
    canon = canonical(func)
    assert canon.coeffs == (1, -2)
    assert canon.const == 3


def test_eliminate_skips_zero_pivot_rows():
    # The second variable repeats the first, so its pivot and row vanish.
    matrix = [[2, 2, 1], [2, 2, 1], [1, 1, 3]]
    trail, pivot = eliminate(matrix, 2)
    assert pivot == 2
    # 2 * (3 - 1 * 1 / 2)
    assert trail == [[5]]


def test_eliminate_refuses_zero_pivot_with_nonzero_row():
    with pytest.raises(InvariantError):
        eliminate([[0, 1], [1, 1]], 1)
    with pytest.raises(InvariantError):
        eliminate([[1, 0, 0], [0, 0, 2], [0, 2, 1]], 2)


def test_residual_quadratic_wide_block_zero_pivot():
    # A 1x2 block spans the line at support (0, 1): its second column is a
    # zero pivot, and every residual vanishes.
    blk = RatMatrix.from_rows([[2, 3]])
    row, scale = residual_quadratic(blk, (frac(5),), [(frac(1),)])[(0, 1)]
    assert not any(row)
    assert scale > 0


def test_residual_quadratic_repeated_column_zero_pivot():
    # Column 1 repeats column 0, so support (0, 1) projects as (0,) does.
    blk = RatMatrix.from_rows([[1, 1], [Fraction(1, 2), Fraction(1, 2)]])
    b_piece = (frac(1), frac(3))
    pieces = [(frac(0), frac(1)), (frac(2), Fraction(-1, 3))]
    table = residual_quadratic(blk, b_piece, pieces)
    both, both_scale = table[(0, 1)]
    one, one_scale = table[(0,)]
    for lam in ((frac(0), frac(0)), (frac(1), Fraction(-2, 3)), (frac(-3), frac(5))):
        value = row_form_value(both, both_scale, lam)
        assert value == row_form_value(one, one_scale, lam)
        target = [b - lam[0] * p - lam[1] * q for b, p, q in zip(b_piece, *pieces)]
        assert value == least_squares([blk.column(0)], target)[1]


def test_quadratic_minimum_zero_coupling_column():
    # A zero coupling column leaves lam_2 without a pivot; it is set to 0.
    blk = RatMatrix.from_rows([[1], [2]])
    pieces = [(frac(1), frac(1)), (frac(0), frac(0))]
    row, scale = residual_quadratic(blk, (frac(1), frac(4)), pieces)[()]
    value = Fraction(*quadratic_minimum(row, 2, scale))
    lam = quadratic_minimizer(row, 2)
    # |(1, 4) - lam_1 (1, 1)|^2 is least at lam_1 = 5/2.
    assert lam == (Fraction(5, 2), 0)
    assert value == Fraction(9, 2)


def _random_problem(rng, k):
    def entry():
        return Fraction(rng.choice((0, 0, 1, -1, 2, -3)), rng.randint(1, 3))

    shapes = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    blocks = []
    for rows, cols in shapes:
        columns = [[entry() for _ in range(rows)] for _ in range(cols)]
        if cols > 1 and rng.random() < 0.3:
            columns[-1] = list(columns[0])
        blocks.append(RatMatrix.from_rows([list(r) for r in zip(*columns)]))
    m = sum(blk.rows for blk in blocks)
    lambda_cols = [tuple(entry() for _ in range(m)) for _ in range(k)]
    return ReducedProblem(
        blocks=tuple(blocks),
        b=tuple(entry() for _ in range(m)),
        lambda_cols=tuple(lambda_cols),
        tags=tuple(range(k)),
        sigma_p=0,
    )


def test_context_rows_and_minima_match_reference_forms():
    rng = random.Random(1968)
    for k in range(4):
        for _ in range(12):
            base = _random_problem(rng, k)
            ctx = solver._context(base)
            forms = _support_forms(base, ctx.pieces)
            flat_forms = [f for per_size in forms for slot in per_size for _, f in slot]
            flat_rows = [r for per_size in ctx.rows for slot in per_size for _, r in slot]
            reference = integer_rows(flat_forms)
            # One positive factor maps the reference rows onto the context's.
            pairs = [(a, b) for ref, new in zip(reference, flat_rows) for a, b in zip(ref, new)]
            nonzero = [(a, b) for a, b in pairs if a]
            factor = Fraction(nonzero[0][1], nonzero[0][0]) if nonzero else 0
            assert factor > 0 or not nonzero
            assert all(b == factor * a for a, b in pairs)
            lookup = [{sup: f for slot in per_size for sup, f in slot} for per_size in forms]
            for _ in range(6):
                picks = [rng.choice(list(by_support)) for by_support in lookup]
                total_row = tuple(
                    map(sum, zip(*(ctx.row_of[i][sup] for i, sup in enumerate(picks))))
                )
                total = functools.reduce(
                    form_add, (lookup[i][sup] for i, sup in enumerate(picks))
                )
                expected = reference_forms.quadratic_minimum(total)
                assert (
                    Fraction(*quadratic_minimum(total_row, k, ctx.scale)),
                    quadratic_minimizer(total_row, k),
                ) == expected


def test_quadratic_minimum_is_an_integer_pair_in_lowest_terms():
    rng = random.Random(2310)
    for k in range(4):
        for _ in range(10):
            ctx = solver._context(_random_problem(rng, k))
            for _ in range(4):
                rows = [rng.choice(list(row_of.values())) for row_of in ctx.row_of]
                num, den = quadratic_minimum(tuple(map(sum, zip(*rows))), k, ctx.scale)
                assert type(num) is int and type(den) is int
                assert num >= 0 and den > 0 and math.gcd(num, den) == 1
