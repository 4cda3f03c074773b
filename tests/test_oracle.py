import itertools
import random
from fractions import Fraction

import pytest

import blocksel.oracle as oracle
from blocksel.linalg import least_squares
from blocksel.model import BudgetExceededError, Instance, InvariantError, ReducedProblem
from blocksel.oracle import brute_force, brute_force_levels
from blocksel.solver import solve_block
from reference_separable import fixed_lambda_opt


def diag_instance(values, b, sigma):
    return Instance.build([[[v]] for v in values], b=b, sigma=sigma)


def test_brute_force_keeps_the_larger_coordinate():
    sol = brute_force(diag_instance((1, 2), (3, 4), 1))
    assert sol.objective == 9
    assert sol.support == (1,)
    assert sol.x == (0, 2)


def test_brute_force_refuses_a_residual_its_solution_does_not_reach(monkeypatch):
    def off_by_one(cols, b):
        coeffs, res2 = least_squares(cols, b)
        return coeffs, res2 + 1

    monkeypatch.setattr(oracle, "least_squares", off_by_one)
    with pytest.raises(InvariantError, match="least-squares residual"):
        brute_force(diag_instance((1, 2), (3, 4), 1))
    # Every budget's solution is checked, the empty support's too.
    with pytest.raises(InvariantError, match="least-squares residual"):
        brute_force_levels(diag_instance((1, 2), (3, 4), 0), levels=0)


def test_brute_force_budget_extremes():
    assert brute_force(diag_instance((1, 2), (3, 4), 0)).objective == 25
    assert brute_force(diag_instance((1, 2), (3, 4), 2)).objective == 0


def test_brute_force_tie_prefers_lexicographic():
    sol = brute_force(diag_instance((1, 1), (2, 2), 1))
    assert sol.support == (0,)


def test_brute_force_intercept_is_free():
    inst = Instance.build(
        [[[1]], [[1]]], intercept=[1, 1], b=[2, 4], sigma=0
    )
    sol = brute_force(inst)
    assert sol.objective == 2
    assert sol.mu == 3


def test_brute_force_refuses_large_enumerations(monkeypatch):
    inst = diag_instance((1, 2), (3, 4), 2)
    monkeypatch.setattr(oracle, "MAX_SUPPORTS", 3)
    with pytest.raises(BudgetExceededError):
        brute_force(inst)


def test_brute_force_rejects_invalid():
    with pytest.raises(ValueError):
        brute_force(Instance.build([[[1]]], b=[1, 2], sigma=0))


def test_levels_match_single_shots():
    inst = Instance.build(
        [[[1, 2]], [[1], [2]]],
        coupling=[[1, 1, 1]],
        b=[3, 1, 2],
        sigma=0,
    )
    levels = brute_force_levels(inst)
    assert len(levels) == inst.d + 1
    for sigma, sol in enumerate(levels):
        single = brute_force(
            Instance.build(
                [[[1, 2]], [[1], [2]]],
                coupling=[[1, 1, 1]],
                b=[3, 1, 2],
                sigma=sigma,
            )
        )
        assert sol.objective == single.objective
        assert sol.support == single.support
    objs = [sol.objective for sol in levels]
    assert all(a >= b for a, b in zip(objs, objs[1:]))


def test_levels_extend_past_the_variable_count():
    inst = diag_instance((1, 2), (3, 4), 0)
    levels = brute_force_levels(inst, levels=4)
    assert len(levels) == 5
    assert levels[2].objective == levels[4].objective == 0


def test_levels_reject_negative():
    with pytest.raises(ValueError):
        brute_force_levels(diag_instance((1,), (1,), 0), levels=-1)


def test_fixed_lambda_examples():
    rp = ReducedProblem(
        blocks=Instance.build([[[1]], [[1]]]).blocks,
        b=(Fraction(2), Fraction(1)),
        lambda_cols=((Fraction(1), Fraction(1)),),
        tags=(0,),
        sigma_p=1,
    )
    assert fixed_lambda_opt(rp, (Fraction(0),)) == (1, (0,))
    assert fixed_lambda_opt(rp, (Fraction(1),)) == (0, (0,))
    pinned = ReducedProblem(
        blocks=rp.blocks, b=rp.b, lambda_cols=rp.lambda_cols, tags=rp.tags,
        sigma_p=0,
    )
    assert fixed_lambda_opt(pinned, (Fraction(0),))[0] == 5


def test_fixed_lambda_rejects_wrong_arity():
    rp = ReducedProblem(
        blocks=Instance.build([[[1]]]).blocks,
        b=(Fraction(1),),
        lambda_cols=(),
        tags=(),
        sigma_p=1,
    )
    with pytest.raises(ValueError):
        fixed_lambda_opt(rp, (Fraction(1),))


def support_enumeration_at(rp, lam):
    """Slow referee for fixed_lambda_opt: try every support directly."""
    m = len(rp.b)
    target = list(rp.b)
    for coeff, col in zip(lam, rp.lambda_cols):
        for r in range(m):
            target[r] -= coeff * col[r]
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
            _, res2 = least_squares([cols[i] for i in sup], target)
            if best is None or res2 < best:
                best = res2
    return best


def random_rp(rng):
    blocks = []
    for _ in range(rng.randint(1, 3)):
        rows = rng.randint(1, 2)
        cols = rng.randint(1, 2)
        blocks.append(
            [[Fraction(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        )
    m = sum(len(blk) for blk in blocks)
    k = rng.randint(0, 2)
    return ReducedProblem(
        blocks=Instance.build(blocks).blocks,
        b=tuple(Fraction(rng.randint(-3, 3)) for _ in range(m)),
        lambda_cols=tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(m)) for _ in range(k)
        ),
        tags=tuple(range(k)),
        sigma_p=rng.randint(0, 3),
    )


def test_fixed_lambda_matches_support_enumeration():
    rng = random.Random(3)
    for _ in range(15):
        rp = random_rp(rng)
        lam = tuple(
            Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            for _ in range(rp.k_prime)
        )
        value, support = fixed_lambda_opt(rp, lam)
        assert value == support_enumeration_at(rp, lam)
        assert len(support) <= rp.sigma_p


def test_fixed_lambda_upper_bounds_the_free_optimum():
    rng = random.Random(4)
    for _ in range(10):
        rp = random_rp(rng)
        _, sol, _ = solve_block(rp)
        for _ in range(3):
            lam = tuple(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(rp.k_prime)
            )
            value, _ = fixed_lambda_opt(rp, lam)
            assert value >= sol.objective
