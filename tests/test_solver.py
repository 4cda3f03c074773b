import gc
import itertools
import math
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

import blocksel.arrangement as arrangement
import blocksel.solver as solver
import reference_cover
import reference_forms
import reference_diagonal
import reference_extended
from reference_separable import diag_greedy, fixed_lambda_opt
from blocksel.cli import dump_instance, generate_instance, load_instance
from blocksel.cover import conic_cover_points, primitive
from blocksel.linalg import least_squares, quadratic_minimum
from blocksel.lp import strict_sign_witness
from blocksel.model import (
    BudgetExceededError,
    Instance,
    InvariantError,
    RatMatrix,
    ReducedProblem,
)
from blocksel.oracle import brute_force
from blocksel.solver import (
    finish,
    reduce,
    solve,
    solve_block,
    solve_detailed,
)
from reference_arrangement import form_add
from reference_cover import conic_from_form
from reference_forms import QuadraticForm, residual_quadratic


def rp_1x1(values, b, lambda_cols=(), tags=(), sigma_p=0):
    return ReducedProblem(
        blocks=tuple(Instance.build([[[v]] for v in values]).blocks),
        b=tuple(Fraction(v) for v in b),
        lambda_cols=tuple(tuple(Fraction(v) for v in col) for col in lambda_cols),
        tags=tuple(tags),
        sigma_p=sigma_p,
    )


def ctx_of(rp):
    """The context of a subproblem, as solve_block looks it up."""
    return solver._context(rp)


def forget():
    """Empty the solver's memo, so the next subproblem builds its context anew."""
    solver._last = None


def standalone(rp):
    """A new context of rp alone, read off a form table over its own columns."""
    table = solver._FormTable(rp.blocks, rp.b, rp.lambda_cols, rp.tags)
    return solver._new_context(replace(rp, forms=None), table)


def candidate_row(ctx, chi):
    """One candidate's residual row: the integer sum of its blocks' rows.

    The support is split by the column offsets; the generators instead
    carry each candidate's row as they build it.
    """
    offsets = ctx.offsets
    rows = [
        row_of[tuple(c - offsets[i] for c in chi if offsets[i] <= c < offsets[i + 1])]
        for i, row_of in enumerate(ctx.row_of)
    ]
    return tuple(map(sum, zip(*rows)))


def minimum(ctx, chi):
    """One candidate's exact minimum over lambda, as finish() scores it."""
    row = candidate_row(ctx, chi)
    return Fraction(*quadratic_minimum(row, ctx.base.k_prime, ctx.scale))


def with_rows(ctx, supports):
    """The candidates mapping finish() takes: each support with its row."""
    return {chi: candidate_row(ctx, chi) for chi in supports}


def rp_oracle(rp):
    """Minimum over all feasible supports, with the free columns always in."""
    m = len(rp.b)
    cols = []
    r0 = 0
    for blk in rp.blocks:
        for c in range(blk.cols):
            col = [Fraction(0)] * m
            for r in range(blk.rows):
                col[r0 + r] = blk.at(r, c)
            cols.append(tuple(col))
        r0 += blk.rows
    best = None
    for size in range(min(rp.sigma_p, rp.n_total) + 1):
        for sup in itertools.combinations(range(rp.n_total), size):
            chosen = [cols[i] for i in sup] + list(rp.lambda_cols)
            _, res2 = least_squares(chosen, rp.b)
            if best is None or res2 < best:
                best = res2
    return best


def random_instance(rng, max_blocks=3, max_rows=2, max_cols=2, k=1, intercept=False):
    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    blocks = []
    for _ in range(rng.randint(1, max_blocks)):
        rows = rng.randint(1, max_rows)
        cols = rng.randint(1, max_cols)
        blocks.append([[entry() for _ in range(cols)] for _ in range(rows)])
    m = sum(len(blk) for blk in blocks)
    coupling = [[entry() for _ in range(m)] for _ in range(k)]
    inter = [entry() for _ in range(m)] if intercept else None
    b = [entry() for _ in range(m)]
    d = sum(len(blk[0]) for blk in blocks) + k
    sigma = rng.randint(0, d)
    return Instance.build(blocks, coupling, inter, b, sigma)


def test_reduce_counts_and_order():
    base = dict(blocks=[[[1]], [[1]]], b=[1, 2])
    one = reduce(Instance.build(coupling=[[1, 1]], sigma=1, **base))
    assert [(rp.tags, rp.sigma_p) for rp in one] == [((), 1), ((0,), 0)]
    only_mu = reduce(Instance.build(intercept=[1, 1], sigma=1, **base))
    assert [(rp.tags, rp.sigma_p) for rp in only_mu] == [(("mu",), 1)]
    two = reduce(Instance.build(coupling=[[1, 1], [1, 2]], sigma=1, **base))
    assert [rp.tags for rp in two] == [(), (0,), (1,)]


def test_reduce_keeps_intercept_first():
    inst = Instance.build(
        [[[1]], [[1]]], coupling=[[1, 1]], intercept=[1, 1], b=[1, 2], sigma=1
    )
    rps = reduce(inst)
    assert rps[1].tags == ("mu", 0)
    assert rps[1].lambda_cols[0] == inst.intercept


def test_solve_identity_plus_coupling():
    build = lambda sigma: Instance.build(
        [[[1]], [[1]]], coupling=[[1, 1]], b=[2, 1], sigma=sigma
    )
    assert solve(build(0)).objective == 5
    sol = solve(build(1))
    assert sol.objective == Fraction(1, 2)
    assert sol.support == (2,)
    assert sol.x == (0, 0, Fraction(3, 2))
    assert solve(build(2)).objective == 0


def test_solve_rejects_invalid_instances():
    bad = Instance.build([[[1]], [[1]]], b=[1], sigma=0)
    with pytest.raises(ValueError):
        solve(bad)


def test_finish_empty_support_only():
    rp = rp_1x1((1, 1), (3, 4))
    sol = finish({}, rp, ctx_of(rp))
    assert sol.objective == 25
    assert sol.support == ()


def test_finish_drops_the_larger_residual():
    rp = rp_1x1((1, 1), (3, 4), sigma_p=1)
    ctx = ctx_of(rp)
    sol = finish(with_rows(ctx, [(0,), (1,)]), rp, ctx)
    assert sol.objective == 9
    assert sol.support == (1,)
    assert sol.x == (0, 4)


def test_finish_joint_block_and_free_solve():
    rp = rp_1x1((1, 1), (2, 1), lambda_cols=[(1, 1)], tags=(0,), sigma_p=1)
    ctx = ctx_of(rp)
    sol = finish(with_rows(ctx, [(0,)]), rp, ctx)
    assert sol.objective == 0
    assert sol.x == (1, 0)
    assert sol.lam == (1,)


def test_finish_rejects_oversized_candidates():
    rp = rp_1x1((1, 1), (3, 4), sigma_p=1)
    with pytest.raises(InvariantError, match="exceeds the subproblem budget"):
        ctx = ctx_of(rp)
        finish(with_rows(ctx, [(0, 1)]), rp, ctx)


def test_a_generator_past_the_budget_is_an_invariant_error(monkeypatch):
    # A support longer than sigma' is a defect of the generator that made
    # it, not bad input; solve_block looks its generators up on every call.
    rp = ReducedProblem(
        blocks=Instance.build([[[1, 2]], [[1], [1]]]).blocks,
        b=(Fraction(3), Fraction(1), Fraction(2)),
        lambda_cols=(),
        tags=(),
        sigma_p=1,
    )
    assert solver.route(rp) == "dp"
    oversized = {(0, 1): (0,)}
    monkeypatch.setattr(
        solver, "_dp_candidate", lambda ctx, level: (oversized.keys(), oversized, 1)
    )
    with pytest.raises(InvariantError, match="exceeds the subproblem budget"):
        solve_block(rp)


def test_diagonal_breakpoint_example():
    rp = rp_1x1((1, 1), (1, 0), lambda_cols=[(1, -1)], tags=(0,), sigma_p=1)
    candidates, sol, _ = solve_block(rp)
    assert candidates == {(0,), (1,)}
    assert sol.objective == 0
    assert sol.support == (0,)


def test_diagonal_zero_budget():
    rp = rp_1x1((1, 1), (1, 0), lambda_cols=[(1, -1)], tags=(0,), sigma_p=0)
    candidates, sol, _ = solve_block(rp)
    assert candidates == {()}
    assert sol.objective == Fraction(1, 2)


def test_diagonal_takes_at_most_two_free_parameters():
    cols = [(1, -1), (1, 2)]
    rp = rp_1x1((1, 1), (1, 0), lambda_cols=cols, tags=(0, 1), sigma_p=1)
    assert solve_block(rp)[1].objective == rp_oracle(rp)


def test_diagonal_without_lambda_matches_greedy():
    a = (Fraction(1), Fraction(2), Fraction(0), Fraction(-1))
    b = (Fraction(3), Fraction(-4), Fraction(5), Fraction(1))
    for sigma in range(5):
        rp = rp_1x1(a, b, sigma_p=sigma)
        _, sol, _ = solve_block(rp)
        _, greedy_obj, _ = diag_greedy(a, b, sigma)
        assert sol.objective == greedy_obj


def test_block_column_pair_example():
    rp = ReducedProblem(
        blocks=Instance.build([[[1], [1]], [[1], [1]]]).blocks,
        b=(Fraction(0), Fraction(2), Fraction(0), Fraction(2)),
        lambda_cols=((Fraction(1), Fraction(0), Fraction(1), Fraction(0)),),
        tags=(0,),
        sigma_p=1,
    )
    _, sol, _ = solve_block(rp)
    assert sol.objective == rp_oracle(rp)


def test_block_methods_agree_on_diagonal(forced):
    rng = random.Random(7)
    for _ in range(10):
        h = rng.randint(1, 3)
        k = rng.randint(0, 2)
        a = [Fraction(rng.randint(-2, 2)) for _ in range(h)]
        b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(h)]
        cols = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(h)) for _ in range(k)
        ]
        rp = rp_1x1(a, b, lambda_cols=cols, tags=tuple(range(k)),
                    sigma_p=rng.randint(0, h))
        expected = rp_oracle(rp)
        with forced("diagonal"):
            _, diag_sol, _ = solve_block(rp)
        assert diag_sol.objective == expected
        for path in ("cover", "extended"):
            with forced(path):
                _, block_sol, _ = solve_block(rp)
            assert block_sol.objective == expected


def test_block_without_lambda_matches_dp():
    rp = ReducedProblem(
        blocks=Instance.build([[[1, 2]], [[1], [1]]]).blocks,
        b=(Fraction(3), Fraction(1), Fraction(2)),
        lambda_cols=(),
        tags=(),
        sigma_p=2,
    )
    _, sol, _ = solve_block(rp)
    value, _ = fixed_lambda_opt(rp, ())
    assert sol.objective == value


def test_solve_matches_brute_force_on_small_instances():
    rng = random.Random(21)
    for trial in range(12):
        inst = random_instance(
            rng, k=rng.randint(0, 1), intercept=rng.random() < 0.5
        )
        assert solve(inst).objective == brute_force(inst).objective


def test_candidate_union_covers_oracle_support():
    rng = random.Random(5)
    for _ in range(8):
        inst = random_instance(rng, max_blocks=2, k=1)
        best = brute_force(inst)
        pool = set()
        for rp in reduce(inst):
            candidates, _, _ = solve_block(rp)
            chosen = frozenset(tag for tag in rp.tags if tag != "mu")
            for chi in candidates:
                pool.add((chosen, frozenset(chi)))
        block_part = frozenset(i for i in best.support if i < inst.n_total)
        coupling_part = frozenset(
            i - inst.n_total for i in best.support if i >= inst.n_total
        )
        assert any(
            chosen == coupling_part and block_part <= chi
            for chosen, chi in pool
        )


def test_budget_error_names_the_subproblem(monkeypatch):
    inst = Instance.build(
        [[[1]], [[1]]],
        coupling=[[1, 2], [2, 1], [1, -1]],
        b=[1, 2],
        sigma=4,
    )
    monkeypatch.setattr(solver, "MAX_CELLS", 1)
    with pytest.raises(BudgetExceededError) as excinfo:
        solve(inst)
    assert "coupling columns [1, 2, 3]" in str(excinfo.value)
    # A 3x3 block at three free parameters: its chain regions pass the
    # budget.
    inst = Instance.build(
        [[[1, 2, 0], [0, 1, 3], [2, 0, 1]], [[1], [2]]],
        coupling=[[1, 0, 2, 1, -1], [0, 1, 1, -2, 1]],
        intercept=[1] * 5,
        b=[1, 2, 3, 4, -1],
        sigma=3,
    )
    monkeypatch.setattr(solver, "MAX_CELLS", 5)
    with pytest.raises(BudgetExceededError) as excinfo:
        solve(inst)
    message = str(excinfo.value)
    assert "subproblem with coupling columns [1, 2]" in message
    assert "chain regions reached 6" in message


def test_objective_monotone_and_exhaustive_at_full_budget():
    inst = Instance.build(
        [[[1, 2], [3, 4]], [[2], [1]]],
        coupling=[[1, 0, 1, 0]],
        b=[1, 2, 3, 4],
        sigma=0,
    )
    values = []
    for sigma in range(inst.d + 1):
        values.append(solve(Instance.build(
            [[[1, 2], [3, 4]], [[2], [1]]],
            coupling=[[1, 0, 1, 0]],
            b=[1, 2, 3, 4],
            sigma=sigma,
        )).objective)
    assert all(a >= b for a, b in zip(values, values[1:]))
    cols = [
        (1, 3, 0, 0), (2, 4, 0, 0), (0, 0, 2, 1), (1, 0, 1, 0),
    ]
    cols = [tuple(Fraction(v) for v in col) for col in cols]
    _, res2 = least_squares(cols, tuple(Fraction(v) for v in (1, 2, 3, 4)))
    assert values[-1] == res2


def test_solve_detailed_report_shape():
    inst = Instance.build(
        [[[1, 2], [3, 4]], [[2], [1]]],
        coupling=[[1, 0, 1, 0]],
        intercept=[1, 1, 1, 1],
        b=[1, 2, 3, 4],
        sigma=2,
    )
    sol, report = solve_detailed(inst)
    assert len(report) == 2
    assert [entry["coupling"] for entry in report] == [[], [0]]
    assert all(entry["intercept"] for entry in report)
    assert [entry["budget"] for entry in report] == [2, 1]
    # The intercept leaves one free parameter on the first subproblem, so
    # neither takes dp.
    assert [entry["path"] for entry in report] == ["cover", "cover"]
    assert all(entry["regions"] >= 1 for entry in report)
    assert all(entry["candidates"] >= 1 for entry in report)
    assert min(entry["objective"] for entry in report) == sol.objective
    assert sol.objective == brute_force(inst).objective


def test_route_states_each_generators_precondition():
    # The generators do not check their own shape or parameter count, so
    # route() must send diagonal only all-1x1 blocks at k' <= 2, dp every
    # other shape without parameters, cover every other shape at k' = 1 and
    # 2, and everything past two parameters to extended.
    def rp_of(shapes, k):
        m = sum(rows for rows, _ in shapes)
        return ReducedProblem(
            blocks=Instance.build([[[1] * cols] * rows for rows, cols in shapes]).blocks,
            b=(Fraction(1),) * m,
            lambda_cols=((Fraction(1),) * m,) * k,
            tags=tuple(range(k)),
            sigma_p=1,
        )

    for k in (0, 1, 2):
        assert solver.route(rp_of([(1, 1)] * 3, k)) == "diagonal"
        expected = "dp" if k == 0 else "cover"
        assert solver.route(rp_of([(1, 1), (2, 1)], k)) == expected
        assert solver.route(rp_of([(1, 2)], k)) == expected
    assert solver.route(rp_of([(1, 1)] * 3, 3)) == "extended"
    assert solver.route(rp_of([(1, 1), (2, 2), (1, 2)], 3)) == "extended"


def test_solve_detailed_diagonal_path_label():
    inst = Instance.build(
        [[[1]], [[2]]], coupling=[[1, 1]], b=[1, 2], sigma=1
    )
    _, report = solve_detailed(inst)
    assert {entry["path"] for entry in report} == {"diagonal"}
    # Past two free parameters, 1x1 subproblems leave the diagonal ranking.
    inst = Instance.build(
        [[[1]], [[2]], [[-1]]],
        coupling=[[1, 0, 2], [0, 1, 1]],
        intercept=[1, 1, 1],
        b=[1, 2, 3],
        sigma=2,
    )
    sol, report = solve_detailed(inst)
    assert [(e["coupling"], e["path"]) for e in report] == [
        ([], "diagonal"),
        ([0], "diagonal"),
        ([1], "diagonal"),
        ([0, 1], "extended"),
    ]
    assert sol.objective == brute_force(inst).objective


def test_auto_matches_brute_force_on_diagonal_three_parameter_instances():
    # 1x1 blocks with three free parameters in the fullest subproblem: three
    # coupling columns, or the intercept and two.
    rng = random.Random(31)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    for trial in range(8):
        h = rng.randint(3, 4)
        intercept = trial % 2 == 1
        k = 2 if intercept else 3
        inst = Instance.build(
            [[[entry()]] for _ in range(h)],
            coupling=[[entry() for _ in range(h)] for _ in range(k)],
            intercept=[1] * h if intercept else None,
            b=[entry() for _ in range(h)],
            sigma=rng.randint(k, h + k),
        )
        sol, report = solve_detailed(inst)
        assert report[-1]["path"] == "extended"
        assert sol.objective == brute_force(inst).objective


def test_lifted_path_matches_brute_force_on_general_blocks(forced):
    # auto at three free parameters, and forced extended at up to two, on up
    # to three blocks of at most 2x2.  sigma' stays at most 2 on the
    # three-parameter subproblem: chain regions multiply with every level,
    # and 2x2 blocks at sigma' 3 or more take tens of seconds.
    rng = random.Random(41)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def build(k, intercept):
        shapes = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        m = sum(rows for rows, _ in shapes)
        return Instance.build(
            [[[entry() for _ in range(cols)] for _ in range(rows)] for rows, cols in shapes],
            coupling=[[entry() for _ in range(m)] for _ in range(k)],
            intercept=[1] * m if intercept else None,
            b=[entry() for _ in range(m)],
            sigma=k + rng.randint(0, min(2, sum(cols for _, cols in shapes))),
        )

    for trial in range(16):
        intercept = trial % 2 == 0
        inst = build(3 - intercept, intercept)
        sol, report = solve_detailed(inst)
        assert report[-1]["path"] == "extended"
        assert sol.objective == brute_force(inst).objective
        intercept = not intercept
        inst = build(rng.randint(0, 2 - intercept), intercept)
        with forced("extended"):
            sol, report = solve_detailed(inst)
        assert {e["path"] for e in report} == {"extended"}
        assert sol.objective == brute_force(inst).objective


def test_edge_rankings_match_rankings_at_cover_witnesses():
    # Reference: read each ordering at a strict witness of every region of
    # the difference and sum lines, from the independent conic cover, and
    # cut it to its top set at every top.  With fewer than two free
    # parameters the lines are lifted into the plane with zero
    # coefficients on the missing ones.
    rng = random.Random(43)
    zero = (Fraction(0), Fraction(0))
    for trial in range(60):
        k = trial % 3
        h = rng.randint(2, 5)
        spread = 1 if trial % 2 else 3
        rp = rp_1x1(
            [rng.randint(-1, 2) for _ in range(h)],
            [rng.randint(-spread, spread) for _ in range(h)],
            lambda_cols=[[rng.randint(-spread, spread) for _ in range(h)] for _ in range(k)],
            tags=tuple(range(k)),
        )
        cols = rp.lambda_cols + ((Fraction(0),) * h,) * (2 - k)
        funcs = [((-cols[0][i], -cols[1][i]), rp.b[i]) for i in range(h)]
        lines = [
            QuadraticForm(2, (zero, zero), (u0 + sign * v0, u1 + sign * v1), c + sign * d)
            for ((u0, u1), c), ((v0, v1), d) in itertools.combinations(funcs, 2)
            for sign in (1, -1)
        ]
        hittable = [i for i in range(h) if rp.blocks[i].at(0, 0) != 0]
        expected = set()
        for x, y in conic_cover_points(map(conic_from_form, lines)):
            values = [(u0 * x + u1 * y + c) ** 2 for (u0, u1), c in funcs]
            expected.add(tuple(sorted(hittable, key=lambda i: (-values[i], i))))
        ctx = solver._context(rp)
        for top in range(h + 2):
            tops = {tuple(sorted(ranking[:top])) for ranking in expected}
            assert solver.solve_diagonal(ctx, top)[0] == tops


def test_kinetic_rankings_equal_the_anchor_by_anchor_walk():
    # Entries from -2..2 make lines merge, coincide and meet three or more
    # at a point, and leave some diagonal entries zero.  The last rounds
    # have the shape of the diag-k2 benchmark documents: h = 10 to 12, two
    # coupling columns and entries p/q with |p|, q <= 5.
    rng = random.Random(47)

    def small():
        return rng.randint(-2, 2)

    def entry():
        return Fraction(rng.randint(1, 5) * rng.choice((-1, 1)), rng.randint(1, 5))

    rounds = [
        (k, intercept, rng.randint(2, 8), small)
        for _ in range(16)
        for k in range(3)
        for intercept in (False, True)
        if k or not intercept
    ]
    rounds += [(2, False, h, entry) for h in (10, 11, 12)]
    for k, intercept, h, draw in rounds:
        pinned = k - intercept
        cols = [[1] * h] if intercept else []
        cols += [[draw() for _ in range(h)] for _ in range(pinned)]
        rp = rp_1x1(
            [draw() for _ in range(h)],
            [draw() for _ in range(h)],
            lambda_cols=cols,
            tags=("mu",) * intercept + tuple(range(pinned)),
        )
        ctx = solver._context(rp)
        rankings = reference_diagonal.diag_rankings(ctx)
        for top in range(h + 2):
            tops = {tuple(sorted(ranking[:top])) for ranking in rankings}
            assert solver.solve_diagonal(ctx, top)[0] == tops


def test_top_sets_without_a_walk_equal_the_walk():
    # At top 0 and at tops that take every hittable coordinate the top set
    # is read without walking; the walk gives the same single set there.
    rng = random.Random(53)
    for trial in range(30):
        k = trial % 3
        h = rng.randint(1, 6)
        rp = rp_1x1(
            [rng.randint(-1, 2) for _ in range(h)],
            [rng.randint(-3, 3) for _ in range(h)],
            lambda_cols=[[rng.randint(-3, 3) for _ in range(h)] for _ in range(k)],
            tags=tuple(range(k)),
        )
        ctx = solver._context(rp)
        hittable = [i for i in range(h) if rp.blocks[i].at(0, 0) != 0]
        for top in range(h + 2):
            walked = solver._walk_top_sets(ctx, hittable, top)
            assert solver.solve_diagonal(ctx, top)[0] == walked
            if top == 0 or top >= len(hittable):
                assert walked == {tuple(hittable[:top])}


def rp_from_funcs(values, funcs):
    """A 1x1 subproblem whose b'_i is p lambda_1 + q lambda_2 + r, funcs[i] = (p, q, r).

    Each entry of funcs holds the lambda coefficients it has parameters
    for, then r.
    """
    k = len(funcs[0]) - 1
    return rp_1x1(
        values,
        [f[-1] for f in funcs],
        lambda_cols=[[-f[l] for f in funcs] for l in range(k)],
        tags=tuple(range(k)),
    )


def test_level_walk_equals_the_reference_rankings_on_forced_ties():
    # Each draw forces a twin (f_t = +-f_i), a zero functional, and a line
    # carrying two tie classes: f_d = f_c - f_a + f_b puts the pairs
    # (a, b) and (c, d) on the line f_a = f_b.  Every fourth draw has no
    # free parameter, and some diagonal entries are zero.  The last input
    # has one free parameter: at lambda_1 = 1, |b'| is 1 for f_0 to f_4
    # (f_4 = -f_0 a twin) and 2 for f_6 and f_7, so that line carries two
    # classes; f_5 is zero and f_8 has a zero diagonal entry.
    rng = random.Random(59)

    def tied_along(line, f, g):
        # |f| = |g| on the whole line: f - g or f + g is a multiple of it.
        return any(
            all(
                u * y == v * x
                for (u, x), (v, y) in itertools.combinations(zip(diff, line), 2)
            )
            for diff in ([x - y for x, y in zip(f, g)], [x + y for x, y in zip(f, g)])
        )

    two_classes = 0
    inputs = []
    for trial in range(120):
        k = 0 if trial % 4 == 0 else 1 + trial % 2
        h = rng.randint(6, 8)
        funcs = [[rng.randint(-2, 2) for _ in range(k + 1)] for _ in range(h)]
        a, b, c, d, t, z = rng.sample(range(h), 6)
        funcs[d] = [fc - fa + fb for fa, fb, fc in zip(funcs[a], funcs[b], funcs[c])]
        sign = rng.choice((1, -1))
        funcs[t] = [sign * v for v in funcs[rng.choice((a, b, c, d))]]
        funcs[z] = [0] * (k + 1)
        values = [rng.choice((-1, 0, 1, 2)) for _ in range(h)]
        line = [x - y for x, y in zip(funcs[a], funcs[b])]
        if k and any(line[:k]) and not tied_along(line, funcs[a], funcs[c]):
            two_classes += 1
        inputs.append((values, funcs))
    inputs.append((
        [1, 2, -1, 1, 1, 1, 2, 1, 0],
        [(1, 0), (-2, 3), (3, -4), (2, -1), (-1, 0), (0, 0), (1, 1), (0, 2), (1, -3)],
    ))
    for values, funcs in inputs:
        ctx = solver._context(rp_from_funcs(values, funcs))
        rankings = reference_diagonal.diag_rankings(ctx)
        for top in range(len(funcs) + 2):
            tops = {tuple(sorted(ranking[:top])) for ranking in rankings}
            assert solver.solve_diagonal(ctx, top)[0] == tops
    assert two_classes >= 60


def test_one_set_read_is_taken_off_every_crossing():
    # The top-4 set is (1, 3, 4, 5) in every region.  Coordinate 2 is a
    # zero functional, and the first line built, b'_1 = 0 from the pair
    # (1, 2), has its base point at lambda = (0, -1), where b'_4 = 0 as
    # well: a ranking read there ties 4 with 2 and keeps (1, 2, 3, 5).
    rp = rp_from_funcs(
        [0, -1, -1, 1, 1, 1],
        [(1, -1, 1), (0, -1, -1), (0, 0, 0), (1, -1, -1), (-1, 0, 0), (-1, -1, 0)],
    )
    ctx = solver._context(rp)
    rankings = reference_diagonal.diag_rankings(ctx)
    tops = {tuple(sorted(ranking[:4])) for ranking in rankings}
    assert tops == {(1, 3, 4, 5)}
    assert solver.solve_diagonal(ctx, 4)[0] == tops


# Count bounds, one small seeded rung per path: a count over its bound
# means the growth degree of that path changed.


def test_diagonal_top_sets_within_the_line_arrangement_bound():
    # L lines in the plane cut it into at most 1 + L + C(L, 2) regions, and
    # each region reads one top set on each side of an edge.
    inst = generate_instance(
        blocks=8, block_rows=1, block_cols=1, coupling=2, intercept=False,
        sigma=4, seed=3, spread=5,
    )
    walked = 0
    for rp in reduce(inst):
        ctx = solver._context(rp)
        cols = rp.lambda_cols + ((Fraction(0),) * rp.n_total,) * (2 - rp.k_prime)
        funcs = [
            (cols[0][i], cols[1][i], rp.b[i])
            for i in range(rp.n_total)
            if rp.blocks[i].at(0, 0) != 0
        ]
        lines = set()
        for f, g in itertools.combinations(funcs, 2):
            for s in (1, -1):
                line = tuple(u + s * v for u, v in zip(f, g))
                lead = line[0] or line[1]
                if lead:
                    lines.add(tuple(u / lead for u in line))
        n = len(lines)
        for top in range(rp.n_total + 2):
            top_sets = solver.solve_diagonal(ctx, top)[0]
            assert len(top_sets) <= 2 * (1 + n + n * (n - 1) // 2)
            walked += len(top_sets) > 1
    assert walked


def test_level_walk_meets_only_lines_that_share_a_coordinate(monkeypatch):
    # Each of the n hittable coordinates lies on at most 2 (n - 1)
    # difference and sum lines, so a tie class, walked against the lines
    # that carry its least member, meets at most 2 (n - 1) of them, and the
    # sweep along lambda_2 = 0 meets each line at most once.  At k' <= 1
    # every line is lambda_1 = c: the sweep alone reads every region, with
    # at most one event per line, and no class is walked.
    h = 16
    inst = generate_instance(
        blocks=h, block_rows=1, block_cols=1, coupling=2, intercept=False,
        sigma=4, seed=3, spread=5,
    )
    class_top_sets, line_anchors = solver._class_top_sets, solver._line_anchors
    walked = []
    calls = []

    def cutting(line, crossing):
        return [(other, coords) for other, coords in crossing
                if line[0] * other[1] != line[1] * other[0]]

    def class_walk(line, members, crossing, *args):
        crossing = list(crossing)
        walked.append((members, cutting(line, crossing)))
        for other, _ in crossing:
            assert min(members) in carried[other]
        return class_top_sets(line, members, crossing, *args)

    def anchors(line, crossing, *args):
        crossing = cutting(line, crossing)
        rows, u, swaps = line_anchors(line, crossing, *args)
        calls.append((len(crossing), len(swaps)))
        return rows, u, swaps

    monkeypatch.setattr(solver, "_class_top_sets", class_walk)
    monkeypatch.setattr(solver, "_line_anchors", anchors)
    for rp in reduce(inst):
        cols = rp.lambda_cols + ((Fraction(0),) * h,) * (2 - rp.k_prime)
        scale = math.lcm(*(v.denominator for v in rp.b + cols[0] + cols[1]))
        funcs = [
            tuple(int(v * scale) for v in (-cols[0][i], -cols[1][i], rp.b[i]))
            for i in range(h)
        ]
        hittable = [i for i in range(h) if rp.blocks[i].at(0, 0) != 0]
        carried = {}
        for i, j in itertools.combinations(hittable, 2):
            for s in (1, -1):
                line = [u + s * v for u, v in zip(funcs[i], funcs[j])]
                if any(line[:2]):
                    carried.setdefault(primitive(line), set()).update((i, j))
        walked.clear()
        calls.clear()
        solver.solve_diagonal(solver._context(rp), rp.sigma_p)
        n = len(hittable)
        assert len(calls) == len(walked) + 1
        assert all(len(crossing) <= 2 * (n - 1) for _, crossing in walked)
        assert sum(entries for entries, _ in calls) <= 2 * (n - 1) * len(walked) + len(carried)
        if rp.k_prime == 2:
            assert walked
        else:
            assert not walked and calls[0][1] <= len(carried)


def test_chain_regions_and_lps_within_the_walk_counts(monkeypatch):
    # The lifted walk splits a slot only where a chain step reads it, so
    # level 0 is one region without a program.
    lps = 0

    def counting(rows):
        nonlocal lps
        lps += 1
        return strict_sign_witness(rows)

    monkeypatch.setattr(arrangement, "strict_sign_witness", counting)
    rp = random_extended_rp(random.Random(2), 3, 9, shapes=[(2, 2), (3, 3)])
    ctx = solver._context(rp)
    for level, most_regions, most_lps in [(0, 1, 0), (1, 12, 11), (2, 108, 107), (3, 288, 323)]:
        lps = 0
        _, _, regions = solver._extended_candidates(ctx, level)
        assert 1 <= regions <= most_regions
        assert lps <= most_lps


def test_cover_witnesses_have_distinct_sign_vectors():
    # Full 2x2 blocks, as on the cover benchmark, at one and two parameters.
    for k in (1, 2):
        rp = random_extended_rp(random.Random(5), k, 3, shapes=[(2, 2)] * 6)
        ctx = solver._context(rp)
        family = reference_cover.split_family(
            solver._plane_conic([u - v for u, v in zip(r1, r2)], k)
            for per_size in ctx.rows
            for slot in per_size
            for (_, r1), (_, r2) in itertools.combinations(slot, 2)
        )
        witnesses = solver._cover_witnesses(ctx.rows, k)
        vectors = set()
        for w in witnesses:
            x, y = (*w, Fraction(0))[:2]
            vector = []
            for a, b, c, d, e, f in family:
                value = a * x * x + b * x * y + c * y * y + d * x + e * y + f
                assert value != 0
                vector.append(value > 0)
            vectors.add(tuple(vector))
        assert len(vectors) == len(witnesses) > 1


def test_diagonal_ranking_serves_budgets_past_the_allocation_limit(monkeypatch, forced):
    # With 1x1 blocks there is one argmin profile, so cover scores every
    # allocation of at most sigma' columns; the ranking's candidates do not
    # depend on sigma'.
    monkeypatch.setattr(solver, "MAX_PROFILE_UNIONS", 30)
    rng = random.Random(41)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    for sigma_p in (3, 4, 5, 3, 4, 5):
        h = 7
        rp = rp_1x1(
            [rng.choice((-2, -1, 1, 2)) for _ in range(h)],
            [entry() for _ in range(h)],
            lambda_cols=[[entry() for _ in range(h)] for _ in range(2)],
            tags=(0, 1),
            sigma_p=sigma_p,
        )
        assert solver._allocation_counts([1] * h)[sigma_p] > 30
        with forced("cover"), pytest.raises(BudgetExceededError, match="profile union"):
            solve_block(rp)
        candidates, sol, regions = solve_block(rp)
        assert solver.route(rp) == "diagonal"
        assert len(candidates) <= regions
        assert sol.objective == rp_oracle(rp)


def test_diagonal_ranking_solves_a_large_budget_at_full_size():
    # h = 21 at sigma' = 10: 2^20 in-budget allocations, past
    # MAX_PROFILE_UNIONS, which cover would refuse.
    rng = random.Random(42)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    h = 21
    inst = Instance.build(
        [[[rng.choice((-2, -1, 1, 2))]] for _ in range(h)],
        coupling=[[entry() for _ in range(h)] for _ in range(2)],
        b=[entry() for _ in range(h)],
        sigma=12,
    )
    assert solver._allocation_counts([1] * h)[10] > solver.MAX_PROFILE_UNIONS
    _, report = solve_detailed(inst)
    assert (report[-1]["path"], report[-1]["budget"]) == ("diagonal", 10)
    assert report[-1]["candidates"] <= report[-1]["regions"]


def random_cover_rp(rng, k):
    """A small subproblem with k free parameters and general blocks."""

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    shapes = [(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    blocks = Instance.build(
        [[[entry() for _ in range(cols)] for _ in range(rows)] for rows, cols in shapes]
    ).blocks
    m = sum(rows for rows, _ in shapes)
    return ReducedProblem(
        blocks=tuple(blocks),
        b=tuple(entry() for _ in range(m)),
        lambda_cols=tuple(tuple(entry() for _ in range(m)) for _ in range(k)),
        tags=tuple(range(k)),
        sigma_p=0,
    )


def test_cover_pool_equals_filtered_reference_pool(forced):
    rng = random.Random(11)
    for trial in range(24):
        base = random_cover_rp(rng, k=1 + trial % 2)
        reference = reference_cover._cover_pool(base)
        for sigma_p in range(base.n_total + 2):
            rp = ReducedProblem(
                base.blocks, base.b, base.lambda_cols, base.tags, sigma_p
            )
            with forced("cover"):
                candidates, _, _ = solve_block(rp)
            limit = min(sigma_p, base.n_total)
            assert candidates == {chi for chi in reference if len(chi) <= limit}


def forced_ties(rng, k, spread=1):
    """Blocks, b and k lambda columns whose supports often tie.

    Entries are integers from -spread to spread.  Blocks are drawn with
    repetition from two templates of two columns, each with its own pieces
    of b and of the lambda columns, so identical blocks recur.  The first
    template is 2x2; the second one's second column repeats its first or is
    zero.
    """
    templates = []
    for rows, tie in ((2, False), (rng.randint(1, 2), True)):
        columns = [[rng.randint(-spread, spread) for _ in range(rows)] for _ in range(2)]
        if tie:
            columns[1] = rng.choice((columns[0], [0] * rows))
        pieces = [[rng.randint(-spread, spread) for _ in range(rows)] for _ in range(k + 1)]
        templates.append(([list(row) for row in zip(*columns)], pieces))
    chosen = [rng.choice(templates) for _ in range(rng.randint(2, 4))]
    blocks = [blk for blk, _ in chosen]
    b = [v for _, pieces in chosen for v in pieces[0]]
    cols = [[v for _, pieces in chosen for v in pieces[1 + l]] for l in range(k)]
    return blocks, b, cols


def forced_ties_rp(blocks, b, cols, sigma_p=0):
    return ReducedProblem(
        blocks=tuple(Instance.build(blocks).blocks),
        b=tuple(Fraction(v) for v in b),
        lambda_cols=tuple(tuple(Fraction(v) for v in col) for col in cols),
        tags=tuple(range(len(cols))),
        sigma_p=sigma_p,
    )


def test_cover_walk_takes_each_union_once_with_its_row(monkeypatch):
    # The pool grows one size at a time, extending each node only by the
    # distinct winners of the profiles still consistent with it, so no
    # union is built twice, and each is scored once with the sum of its
    # blocks' rows.  Its best entry is finish()'s pick over the supports
    # built so far.
    # Spread 1 ties most rows; spread 3 keeps the repeated and zero columns
    # and the identical blocks but gives several argmin profiles.
    scored = []

    def recorded(row, k, scale):
        scored.append(row)
        return quadratic_minimum(row, k, scale)

    monkeypatch.setattr(solver, "quadratic_minimum", recorded)
    rng = random.Random(2020)
    tied = several_profiles = 0
    for trial in range(48):
        spread = 1 if trial % 4 < 2 else 3
        base = forced_ties_rp(*forced_ties(rng, 1 + trial % 2, spread))
        ctx = standalone(base)
        reference = reference_cover._cover_pool(base)
        built = []
        for limit in range(base.n_total + 1):
            scored.clear()
            pooled, best, regions = solver._cover_pool(ctx, limit)
            assert regions == ctx.pool.witnesses
            walked = ctx.pool.supports[limit]
            built.extend(walked)
            assert len(built) == len(set(built))
            expected = {chi for chi in reference if len(chi) <= limit}
            assert set(built) == set(pooled) == expected
            assert len(scored) == len(walked)
            for chi, row in zip(walked, scored):
                assert len(chi) == limit and row == candidate_row(ctx, chi)
            winner = min(expected, key=lambda chi: (minimum(ctx, chi), chi))
            assert best == {winner: candidate_row(ctx, winner)}
        several_profiles += ctx.pool.profiles > 1
        tied += any(
            len({row for _, row in slot}) < len(slot)
            for per_size in ctx.rows
            for slot in per_size
        )
    assert tied >= 20 and several_profiles >= 20


def test_dp_matches_brute_force_and_forced_cover_on_ties(forced):
    # Without free parameters dp returns one candidate, the optimum with
    # the smallest support among ties, as finish() picks it from the pool.
    rng = random.Random(2021)
    for trial in range(30):
        blocks, b, _ = forced_ties(rng, 0)
        base = forced_ties_rp(blocks, b, ())
        for sigma_p in range(base.n_total + 2):
            rp = replace(base, sigma_p=sigma_p)
            assert solver.route(rp) == "dp"
            candidates, sol, regions = solve_block(rp)
            assert (len(candidates), regions) == (1, 1)
            with forced("cover"):
                _, cover_sol, _ = solve_block(rp)
            assert sol == cover_sol
            assert sol.objective == rp_oracle(rp)
            if sigma_p <= base.n_total:
                brute = brute_force(Instance.build(blocks, b=b, sigma=sigma_p))
                assert (brute.objective, brute.support) == (sol.objective, sol.support)


def test_dp_solves_the_refused_cover_rung_with_one_candidate():
    # 24 blocks of up to 2x2 at sigma 7 without free parameters: the cover
    # pool's allocations are over MAX_PROFILE_UNIONS for its one profile.
    inst = generate_instance(
        blocks=24, block_rows=2, block_cols=2, coupling=0, intercept=False,
        sigma=7, seed=5, spread=3,
    )
    (rp,) = reduce(inst)
    widths = [blk.cols for blk in rp.blocks]
    assert solver._allocation_counts(widths)[7] > solver.MAX_PROFILE_UNIONS
    candidates, sol, regions = solve_block(rp)
    assert (solver.route(rp), len(candidates), regions) == ("dp", 1, 1)
    # fixed_lambda_opt reads the per-block tables into reference_separable.dp_solve.
    assert sol.objective == fixed_lambda_opt(rp, ())[0]


def random_extended_rp(rng, k, spread, shapes=None):
    """A subproblem with k free parameters and blocks of the given shapes.

    Without shapes, up to three blocks of <= 3x2.  Entries are p/q with
    |p| <= spread and 1 <= q <= spread; spread 1 draws from -1, 0, 1 only,
    so residual forms often tie.
    """

    def entry():
        return Fraction(rng.randint(-spread, spread), rng.randint(1, spread))

    if shapes is None:
        shapes = [(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
    blocks = Instance.build(
        [[[entry() for _ in range(cols)] for _ in range(rows)] for rows, cols in shapes]
    ).blocks
    m = sum(rows for rows, _ in shapes)
    return ReducedProblem(
        blocks=tuple(blocks),
        b=tuple(entry() for _ in range(m)),
        lambda_cols=tuple(tuple(entry() for _ in range(m)) for _ in range(k)),
        tags=tuple(range(k)),
        sigma_p=0,
    )


def test_extended_candidates_equal_the_refined_cell_reference():
    # The reference refines every support cell by all exchange comparisons,
    # so it is only run where that arrangement fits a small cell budget.
    rng = random.Random(21)
    compared = set()
    for trial in range(24):
        k = 1 + trial % 3
        spread = 1 if trial % 2 else 3
        base = random_extended_rp(rng, k, spread)
        for sigma_p in range(base.n_total + 1):
            rp = replace(base, sigma_p=sigma_p)
            try:
                want, _ = reference_extended.extended_candidates(rp, 40)
            except BudgetExceededError:
                continue
            level = min(sigma_p, rp.n_total)
            _, got, regions = solver._extended_candidates(ctx_of(rp), level)
            assert got.keys() == want
            assert regions >= len(got)
            compared.add((k, spread, min(sigma_p, 2)))
    # Every parameter count, with and without ties, at sigma' 0, 1 and >= 2.
    assert compared == set(itertools.product((1, 2, 3), (1, 3), (0, 1, 2)))


def test_three_column_blocks_match_the_reference_and_brute_force():
    # A block of three columns puts three supports in each of its size-1
    # and size-2 slots, so the support split there takes argmins of three
    # functionals, which blocks of at most two columns never need.  The
    # reference refines every support cell by all exchange comparisons, so
    # it is only run where that arrangement fits a small cell budget; draws
    # go on until one subproblem per parameter count and spread fits it.
    rng = random.Random(34)

    def shapes():
        small = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        small.insert(rng.randint(0, len(small)), (rng.randint(1, 3), 3))
        return small

    for k, spread in itertools.product((1, 2, 3), (1, 3)):
        compared = False
        for _ in range(20):
            base = random_extended_rp(rng, k, spread, shapes())
            for sigma_p in range(base.n_total + 1):
                rp = replace(base, sigma_p=sigma_p)
                try:
                    want, _ = reference_extended.extended_candidates(rp, 40)
                except BudgetExceededError:
                    continue
                level = min(sigma_p, rp.n_total)
                _, got, _ = solver._extended_candidates(ctx_of(rp), level)
                assert got.keys() == want
                compared = True
            if compared:
                break
        assert compared, (k, spread)

    # Three free parameters: the intercept and two coupling columns, with
    # sigma' at most 2 on the subproblem that pins both.
    for trial in range(6):
        spread = 1 if trial % 2 else 3

        def entry():
            return Fraction(rng.randint(-spread, spread), rng.randint(1, spread))

        blocks = shapes()
        m = sum(rows for rows, _ in blocks)
        inst = Instance.build(
            [[[entry() for _ in range(cols)] for _ in range(rows)] for rows, cols in blocks],
            coupling=[[entry() for _ in range(m)] for _ in range(2)],
            intercept=[1] * m,
            b=[entry() for _ in range(m)],
            sigma=2 + rng.randint(1, 2),
        )
        sol, report = solve_detailed(inst)
        assert report[-1]["path"] == "extended"
        assert sol.objective == brute_force(inst).objective
        # The instance optimum can come from another subproblem, so the
        # three-parameter one is checked against its own brute force too.
        assert report[-1]["objective"] == rp_oracle(reduce(inst)[-1])


def test_forced_extended_on_a_three_column_block_equals_brute_force(forced):
    # The cell reference refuses most subproblems with a 3-column block at
    # k' >= 2, so forced extended is checked against brute force: the
    # instance optimum and every subproblem's own, at k' = 1 to 3.
    rng = random.Random(34)
    for trial in range(24):
        spread = 1 if trial % 2 else 3

        def entry():
            return Fraction(rng.randint(-spread, spread), rng.randint(1, spread))

        shapes = [(3, 3)]
        if rng.random() < 0.5:
            shapes.insert(rng.randint(0, 1), (rng.randint(1, 2), rng.randint(1, 2)))
        m = sum(rows for rows, _ in shapes)
        inst = Instance.build(
            [[[entry() for _ in range(cols)] for _ in range(rows)] for rows, cols in shapes],
            coupling=[[entry() for _ in range(m)] for _ in range(rng.randint(1, 2))],
            intercept=[1] * m,
            b=[entry() for _ in range(m)],
            sigma=rng.randint(1, 4),
        )
        with forced("extended"):
            sol, report = solve_detailed(inst)
        assert sol.objective == brute_force(inst).objective
        for rp, entry_stats in zip(reduce(inst), report):
            assert entry_stats["path"] == "extended"
            assert entry_stats["objective"] == rp_oracle(rp)


def test_integer_argmins_match_fraction_argmins():
    rng = random.Random(12)
    for trial in range(24):
        base = random_cover_rp(rng, k=trial % 3)
        rows = solver._context(base).rows
        witnesses = reference_cover._cover_witnesses(base)
        if base.k_prime == 2:
            # Row differences map to the conics of the form differences.
            diffs = reference_cover._difference_forms(base)
            assert solver._cover_witnesses(rows, 2) == tuple(
                conic_cover_points(map(conic_from_form, diffs))
            )
        for w in witnesses:
            assert solver._argmins_at(rows, w) == reference_cover._argmins_at(base, w)


def test_cover_solves_past_the_old_profile_union_budget():
    # 13 full 2x2 blocks: the budget-free pool needed 3^13 allocations per
    # argmin profile, over MAX_PROFILE_UNIONS whatever the profile count.
    rng = random.Random(1)

    def entry():
        return Fraction(rng.randint(1, 5) * rng.choice((-1, 1)), rng.randint(1, 5))

    h = 13
    assert 3**h > solver.MAX_PROFILE_UNIONS
    inst = Instance.build(
        [[[entry(), entry()], [entry(), entry()]] for _ in range(h)],
        coupling=[[entry() for _ in range(2 * h)]],
        intercept=[1] * (2 * h),
        b=[entry() for _ in range(2 * h)],
        sigma=2,
    )
    sol, report = solve_detailed(inst)
    assert [entry["path"] for entry in report] == ["cover", "cover"]
    assert sol.objective == brute_force(inst).objective


def test_profile_union_budget_names_the_subproblem(monkeypatch, forced):
    monkeypatch.setattr(solver, "MAX_PROFILE_UNIONS", 3)
    inst = Instance.build(
        [[[1, 2], [3, 1]], [[2, 1], [1, -1]]],
        coupling=[[1, 0, 2, 1]],
        b=[1, 2, 3, 4],
        sigma=2,
    )
    with forced("cover"), pytest.raises(BudgetExceededError) as excinfo:
        solve(inst)
    message = str(excinfo.value)
    assert "subproblem with coupling columns []" in message
    assert "profile union enumeration" in message


def test_allocation_count_matches_enumeration():
    for widths in ((1,), (2, 2, 2), (3, 1, 2, 2)):
        counts = solver._allocation_counts(widths)
        assert len(counts) == sum(widths) + 1
        for limit in range(sum(widths) + 2):
            allocations = [
                alloc
                for alloc in itertools.product(*(range(w + 1) for w in widths))
                if sum(alloc) <= limit
            ]
            assert counts[min(limit, sum(widths))] == len(allocations)


def _tied_subproblem(rng, k):
    """Blocks drawn with repetition from two templates, each carrying its
    own pieces of b and of the lambda columns, and columns repeated inside
    a template, so that many supports share one residual."""

    def entry():
        return Fraction(rng.randint(-2, 2), rng.randint(1, 2))

    templates = []
    for _ in range(2):
        rows, cols = rng.randint(1, 2), rng.randint(1, 2)
        columns = [[entry() for _ in range(rows)] for _ in range(cols)]
        if cols == 2 and rng.random() < 0.5:
            columns[1] = list(columns[0])
        pieces = [[entry() for _ in range(rows)] for _ in range(k + 1)]
        templates.append((RatMatrix.from_rows(list(zip(*columns))), pieces))
    chosen = [rng.choice(templates) for _ in range(rng.randint(2, 3))]
    return ReducedProblem(
        blocks=tuple(blk for blk, _ in chosen),
        b=tuple(v for _, pieces in chosen for v in pieces[0]),
        lambda_cols=tuple(
            tuple(v for _, pieces in chosen for v in pieces[1 + l]) for l in range(k)
        ),
        tags=tuple(range(k)),
        sigma_p=rng.randint(1, 2),
    )


def test_finish_breaks_ties_like_the_fraction_reference():
    # Every support within the budget is a candidate.  The reference scores
    # each with the Fraction forms (Gram-Schmidt residuals, Gauss-Jordan
    # minimum) and takes min over (value, support); finish must return the
    # same support, value and lambda.
    rng = random.Random(1616)
    tied = 0
    for trial in range(60):
        rp = _tied_subproblem(rng, trial % 3)
        ctx = ctx_of(rp)
        forms = reference_forms._support_forms(ctx.base, ctx.pieces)
        lookup = [{sup: f for slot in per_size for sup, f in slot} for per_size in forms]
        offsets = ctx.offsets

        def reference(chi):
            picks = [
                tuple(c - offsets[i] for c in chi if offsets[i] <= c < offsets[i + 1])
                for i in range(len(rp.blocks))
            ]
            total = lookup[0][picks[0]]
            for i in range(1, len(picks)):
                total = form_add(total, lookup[i][picks[i]])
            return reference_forms.quadratic_minimum(total)

        pool = [
            chi
            for size in range(rp.sigma_p + 1)
            for chi in itertools.combinations(range(rp.n_total), size)
        ]
        scored = {chi: reference(chi) for chi in pool}
        best = min(pool, key=lambda chi: (scored[chi][0], chi))
        sol = finish(with_rows(ctx, reversed(pool)), rp, ctx)
        assert (sol.support, sol.objective, sol.lam) == (best, *scored[best])
        if sum(value == scored[best][0] for value, _ in scored.values()) > 1:
            tied += 1
    assert tied >= 30


def test_finish_raises_invariant_error_on_residual_mismatch(monkeypatch):
    def off_by_one(columns, target):
        coeffs, res2 = least_squares(columns, target)
        return coeffs, res2 + 1

    monkeypatch.setattr(solver, "least_squares", off_by_one)
    rp = rp_1x1((1, 1), (3, 4), sigma_p=1)
    ctx = standalone(rp)
    with pytest.raises(InvariantError, match="rebuilt residual"):
        finish(with_rows(ctx, [(0,), (1,)]), rp, ctx)


def test_finish_keeps_each_rebuilt_winner_and_checks_every_new_one(monkeypatch):
    # A winner rebuilt once is returned again without a rebuild; a support
    # that wins for the first time is rebuilt and checked.
    rp = rp_1x1((1, 1), (3, 4), sigma_p=1)
    ctx = standalone(rp)
    sol = finish(with_rows(ctx, [(0,), (1,)]), rp, ctx)
    assert sol.support == (1,)
    monkeypatch.setattr(solver, "least_squares", lambda columns, target: 1 / 0)
    assert finish(with_rows(ctx, [(1,)]), rp, ctx) is sol
    with pytest.raises(ZeroDivisionError):
        finish(with_rows(ctx, [(0,)]), rp, ctx)


def test_lift_raises_invariant_error_on_residual_mismatch(monkeypatch):
    real = solver.make_solution

    def shifted(instance, x, mu, support):
        sol = real(instance, x, mu, support)
        return replace(sol, objective=sol.objective + 1)

    monkeypatch.setattr(solver, "make_solution", shifted)
    inst = Instance.build([[[1]], [[1]]], coupling=[[1, 1]], b=[2, 1], sigma=1)
    with pytest.raises(InvariantError, match="lifted residual"):
        solve(inst)


def solve_fresh(rp):
    """solve_block from an empty memo, so nothing is reused."""
    forget()
    candidates, sol, regions = solve_block(rp)
    return set(candidates), sol, regions


def test_every_level_answers_alike_in_any_order(forced):
    # One context serves every budget: its cover pool and DP table grow with
    # the largest level asked and answer lower levels by lookup.  Levels 0
    # to n + 1 asked in increasing, decreasing and shuffled order must each
    # give what a fresh context gives, and the optimum.
    rng = random.Random(2121)
    for trial in range(18):
        k = trial % 3
        base = forced_ties_rp(*forced_ties(rng, k, 1 if trial % 2 else 3))
        levels = list(range(base.n_total + 2))
        shuffled = rng.sample(levels, len(levels))
        for path in ("dp", "cover") if k == 0 else ("cover",):
            with forced(path):
                fresh = [solve_fresh(replace(base, sigma_p=s)) for s in levels]
                for order in (levels, levels[::-1], shuffled):
                    forget()
                    for sigma_p in order:
                        rp = replace(base, sigma_p=sigma_p)
                        candidates, sol, regions = solve_block(rp)
                        assert (set(candidates), sol, regions) == fresh[sigma_p]
            for sigma_p in levels:
                rp = replace(base, sigma_p=sigma_p)
                assert fresh[sigma_p][1].objective == rp_oracle(rp)


def test_profile_union_refusal_leaves_lower_levels_answerable(monkeypatch, forced):
    # A level whose pool would pass MAX_PROFILE_UNIONS is refused before
    # the pool grows, with the allocation count of that level; the levels
    # below still answer as a fresh context does.
    rng = random.Random(2122)
    base = None
    while base is None or base.n_total < 5:
        base = forced_ties_rp(*forced_ties(rng, 1, 3))
    widths = [blk.cols for blk in base.blocks]

    def allocations(limit):
        every = itertools.product(*(range(w + 1) for w in widths))
        return sum(sum(alloc) <= limit for alloc in every)

    profiles = solver._new_pool(standalone(base)).profiles
    low, high = 2, base.n_total
    fresh = [solve_fresh(replace(base, sigma_p=s)) for s in range(low + 1)]
    monkeypatch.setattr(solver, "MAX_PROFILE_UNIONS", allocations(low) * profiles)
    forget()
    message = (
        f"profile union enumeration needs {allocations(high)} allocations of at "
        f"most {high} columns for each of {profiles} argmin tables, "
        f"over the limit of {allocations(low) * profiles}"
    )
    with forced("cover"):
        for warm in (False, True):
            if warm:
                solve_block(replace(base, sigma_p=low))
            with pytest.raises(BudgetExceededError) as excinfo:
                solve_block(replace(base, sigma_p=high))
            assert str(excinfo.value) == message
            assert len(solver._context(base).pool.best) == (low + 1 if warm else 0)
            for sigma_p in reversed(range(low + 1)):
                candidates, sol, regions = solve_block(replace(base, sigma_p=sigma_p))
                assert (set(candidates), sol, regions) == fresh[sigma_p]
            forget()


def test_equal_documents_share_one_context():
    # Two documents loaded apart hold equal but distinct Fractions; their
    # subproblems with equal data find one context, whatever the budget.
    forget()
    inst = generate_instance(
        blocks=3, block_rows=2, block_cols=2, coupling=1, intercept=True,
        sigma=2, seed=4, spread=3,
    )
    text = dump_instance(inst)
    first = load_instance(text)
    second = load_instance(text.replace('"sigma": 2', '"sigma": 3'))
    assert second.sigma == 3 and first.b[0] is not second.b[0]
    rps = reduce(first)
    contexts = [solver._context(rp) for rp in rps]
    again = [solver._context(rp) for rp in reduce(second)]
    held = list(rps[0].forms.contexts.values())
    assert len(again) == len(contexts) == len(held) == 2
    assert all(a is b is c for a, b, c in zip(contexts, again, held))


def test_the_memo_holds_one_instance():
    # Between solves the solver keeps only the last instance's form table:
    # solving B lets A's go, solving A again gives the same answer, and
    # after many distinct solves one table is alive.  B holds A's blocks,
    # b and columns, its intercept moved to the coupling columns, so the
    # two tables differ only in their tags.
    def instance(seed):
        return generate_instance(
            blocks=3, block_rows=2, block_cols=2, coupling=1, intercept=True,
            sigma=2, seed=seed, spread=3,
        )

    forget()
    a = instance(1)
    first = solve_detailed(a)
    held = reduce(a)[0].forms
    assert len(held.contexts) == 2
    table = weakref.ref(held)
    del held
    b = replace(a, coupling=(a.intercept, *a.coupling), intercept=None)
    assert solve(b).objective == brute_force(b).objective
    gc.collect()
    assert table() is None
    assert solve_detailed(a) == first
    for seed in range(100, 300):
        solve(instance(seed))
    gc.collect()
    assert sum(isinstance(obj, solver._FormTable) for obj in gc.get_objects()) == 1


def _degenerate_instance(rng, k):
    """An instance whose blocks and free columns repeat and vanish.

    A rank-deficient 2x3 block (its third column repeats its first) and a
    3x2 block whose second column is zero or repeats the first, then one
    more block of up to 2x2; k coupling columns, the last of which repeats
    the intercept or the first coupling column, or is zero.
    """

    def entry():
        return Fraction(rng.choice((0, 1, -1, 2, -3)), rng.randint(1, 3))

    def vector(m):
        return [entry() for _ in range(m)]

    wide = [vector(2) for _ in range(2)]
    tall = vector(3)
    rows = rng.randint(1, 2)
    extra = [vector(rows) for _ in range(rng.randint(1, 2))]
    columns = [
        [*wide, wide[0]],
        [tall, rng.choice(([Fraction(0)] * 3, list(tall)))],
        extra,
    ]
    blocks = [[list(r) for r in zip(*cols)] for cols in columns]
    m = 5 + rows
    intercept = vector(m) if rng.random() < 0.5 else None
    coupling = [vector(m) for _ in range(k)]
    if k:
        twins = [col for col in (intercept, *coupling[:-1]) if col is not None]
        coupling[-1] = list(rng.choice(twins)) if twins else [Fraction(0)] * m
    return Instance.build(blocks, coupling, intercept, vector(m), sigma=k + 1)


def _rational_row(form):
    """A reference form as (constant, lam_i, lam_i lam_j for i <= j)."""
    return (
        form.s0,
        *form.r,
        *(
            form.p[i][j] if i == j else 2 * form.p[i][j]
            for i in range(form.dim)
            for j in range(i, form.dim)
        ),
    )


def test_shared_form_table_gives_the_standalone_contexts():
    # Every context solve_detailed builds off its instance's shared form
    # table equals the context built from that subproblem alone, and its
    # rows are the Gram-Schmidt residual forms.
    rng = random.Random(2525)
    for trial in range(40):
        inst = _degenerate_instance(rng, trial % 4)
        forget()
        solve_detailed(inst)
        built = list(solver._last.contexts.values())
        bounds = inst.row_offsets()
        for rp in reduce(inst):
            shared = solver._context(rp)
            assert any(shared is ctx for ctx in built)
            alone = standalone(replace(rp, sigma_p=0))
            assert (shared.rows, shared.scale, shared.empty) == (
                alone.rows, alone.scale, alone.empty
            )
            for i, blk in enumerate(inst.blocks):
                lo, hi = bounds[i], bounds[i + 1]
                lam_pieces = [col[lo:hi] for col in rp.lambda_cols]
                for slot in shared.rows[i]:
                    for sup, row in slot:
                        form = residual_quadratic(blk, inst.b[lo:hi], lam_pieces, sup)
                        expected = _rational_row(form)
                        assert tuple(Fraction(v, shared.scale) for v in row) == expected


def test_one_residual_table_per_block_per_instance(monkeypatch):
    # A cold solve fills its instance's form table once, one
    # residual_quadratic per block, whatever the number of coupling
    # columns; the same data at another sigma reuses every context and
    # builds nothing.  A hand-built subproblem fills a table of its own.
    calls = []
    real = solver.residual_quadratic

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "residual_quadratic", counted)
    for coupling in range(4):
        inst = generate_instance(
            blocks=4, block_rows=2, block_cols=2, coupling=coupling,
            intercept=True, sigma=3, seed=7, spread=3,
        )
        forget()
        solve_detailed(inst)
        assert len(calls) == len(inst.blocks)
        for sigma in (2, 4):
            calls.clear()
            solve_detailed(replace(inst, sigma=sigma))
            assert calls == []
        rp = reduce(inst)[-1]
        forget()
        solve_block(replace(rp, forms=None))
        assert len(calls) == len(inst.blocks)
        calls.clear()


def test_a_sigma_sweep_fills_one_table(monkeypatch):
    # Documents of one instance solved at sigma = 0, 1, ..., d in order, as
    # a sigma sweep does, build each block's residual table once in all:
    # the table spans every coupling column even at sigma = 0, where no
    # subproblem pins one, so the first coupling subsets at sigma = 1 find
    # their rows already there.
    calls = []
    real = solver.residual_quadratic

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "residual_quadratic", counted)
    for seed in range(6):
        inst = generate_instance(
            blocks=3, block_rows=2, block_cols=2, coupling=1 + seed % 2,
            intercept=True, sigma=0, seed=seed, spread=3,
        )
        forget()
        calls.clear()
        for sigma in range(inst.d + 1):
            solve_detailed(load_instance(dump_instance(replace(inst, sigma=sigma))))
        assert len(calls) == len(inst.blocks)
