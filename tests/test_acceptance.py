"""End-to-end acceptance checks.

Every test prints one "criterion N: PASS/FAIL" line so a verbose run reads
as a checklist.  All corpora are seeded and every comparison is exact; the
criteria with a stated wall-clock budget enforce it.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import reference_forms
from blocksel.linalg import least_squares, residual_quadratic
from blocksel.model import Instance, ReducedProblem
from blocksel.oracle import brute_force, brute_force_levels
from blocksel.solver import (
    _context,
    _extended_candidates,
    aug_set,
    solve,
    solve_detailed,
)
from reference_arrangement import (
    Hyperplane,
    LinearFunctional,
    enumerate_cells,
    ext,
    form_is_zero,
    form_sub,
    predicted_cell_bound,
    row_value,
)
from reference_separable import (
    ValTable,
    build_d,
    chain_solve,
    d_pattern_bound,
    dp_solve,
    fixed_lambda_opt,
)


@contextmanager
def criterion(number, limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"criterion {number}: FAIL ({elapsed:.1f}s, limit {limit}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {limit}s budget ({elapsed:.1f}s)"
        )
    print(f"criterion {number}: PASS ({elapsed:.1f}s)")


def rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def stacked_columns(instance):
    m = instance.m_total
    cols = []
    r0 = 0
    for blk in instance.blocks:
        for c in range(blk.cols):
            col = [Fraction(0)] * m
            for r in range(blk.rows):
                col[r0 + r] = blk.at(r, c)
            cols.append(tuple(col))
        r0 += blk.rows
    cols.extend(instance.coupling)
    return cols


# --- criterion 1 + 8 corpus ---------------------------------------------------

_cache: dict = {}


def master_sweep():
    """200 seeded instances, solved at every budget, with oracle answers."""
    if "master" not in _cache:
        rng = random.Random(101)
        results = []
        for _ in range(200):
            blocks = []
            for _ in range(rng.randint(1, 4)):
                rows = rng.randint(1, 2)
                cols = rng.randint(1, 2)
                blocks.append(
                    [[rational(rng) for _ in range(cols)] for _ in range(rows)]
                )
            m = sum(len(blk) for blk in blocks)
            k = rng.randint(0, 1)
            coupling = [[rational(rng) for _ in range(m)] for _ in range(k)]
            intercept = (
                [rational(rng) for _ in range(m)] if rng.random() < 0.5 else None
            )
            b = [rational(rng) for _ in range(m)]
            base = Instance.build(blocks, coupling, intercept, b, sigma=0)
            oracle = [sol.objective for sol in brute_force_levels(base)]
            mine = [
                solve(
                    Instance.build(blocks, coupling, intercept, b, sigma=sigma)
                ).objective
                for sigma in range(base.d + 1)
            ]
            results.append((base, oracle, mine))
        _cache["master"] = results
    return _cache["master"]


def test_criterion_1_master_oracle_equivalence():
    with criterion(1, limit=300):
        for _, oracle, mine in master_sweep():
            assert mine == oracle


def test_criterion_2_diagonal_and_block_agreement(forced):
    with criterion(2, limit=180):
        rng = random.Random(202)
        for _ in range(100):
            n = rng.randint(2, 8)
            k = rng.randint(0, 2)
            blocks = [[[rational(rng)]] for _ in range(n)]
            coupling = [[rational(rng) for _ in range(n)] for _ in range(k)]
            b = [rational(rng) for _ in range(n)]
            sigma = rng.randint(0, min(n + k, 5))
            inst = Instance.build(blocks, coupling, b=b, sigma=sigma)
            reference = brute_force(inst).objective
            sol, report = solve_detailed(inst)
            assert {entry["path"] for entry in report} == {"diagonal"}
            diagonal = sol.objective
            with forced("cover"):
                block = solve(inst).objective
            assert diagonal == reference
            assert block == diagonal


# --- criterion 3 + 4 corpus ---------------------------------------------------


def table_corpus():
    """1000 seeded tables with exhaustive per-level optima."""
    if "tables" not in _cache:
        rng = random.Random(303)
        corpus = []
        for trial in range(1000):
            h = rng.randint(1, 5)
            n_vec = [rng.randint(1, 3) for _ in range(h)]
            rows = []
            for n in n_vec:
                if trial % 2:
                    row = [Fraction(rng.randint(-3, 3)) for _ in range(n + 1)]
                else:
                    row = [
                        Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in range(n + 1)
                    ]
                rows.append(tuple(row))
            table = ValTable(tuple(rows))
            structure = table.structure()
            best = [None] * (structure.n_total + 1)
            optima = [set() for _ in range(structure.n_total + 1)]
            for alloc in itertools.product(*(range(n + 1) for n in n_vec)):
                s = sum(alloc)
                v = sum(
                    (table.values[i][j] for i, j in enumerate(alloc)), Fraction(0)
                )
                if best[s] is None or v < best[s]:
                    best[s] = v
                    optima[s] = {alloc}
                elif v == best[s]:
                    optima[s].add(alloc)
            corpus.append((table, best, optima))
        _cache["tables"] = corpus
    return _cache["tables"]


def test_criterion_3_proximity_of_optimal_allocations():
    with criterion(3, limit=120):
        for table, _, optima in table_corpus():
            structure = table.structure()
            assert structure.theta_bar <= 12
            for s in range(structure.n_total):
                for source in optima[s]:
                    neighbours = aug_set(structure, source)
                    assert any(
                        target in optima[s + 1] for target in neighbours
                    ), "no q-close optimal successor"


def test_criterion_4_chain_dp_exhaustive_equivalence():
    with criterion(4):
        for table, best, _ in table_corpus():
            structure = table.structure()
            top = structure.n_total
            _, final, trace = chain_solve(table, top, return_trace=True)
            assert final == best[top]
            for s in range(top + 1):
                assert table.total(trace[s]) == best[s]
                _, dp_value = dp_solve(table, s)
                assert dp_value == best[s]


def test_criterion_5_counting_bounds():
    with criterion(5):
        rng = random.Random(505)
        # Exchange-set size against the closed-form pattern bound.
        for trial in range(20):
            h = rng.randint(1, 3) if trial < 16 else 4
            top = 3 if h <= 3 else 2
            n_vec = [rng.randint(1, top) for _ in range(h)]
            rows = tuple(
                tuple(Fraction(rng.randint(-9, 9)) for _ in range(n + 1))
                for n in n_vec
            )
            table = ValTable(rows)
            structure = table.structure()
            assert len(build_d(structure, table=table)) <= d_pattern_bound(structure)
        # Same-cardinality comparison hyperplanes per block.
        for _ in range(30):
            m_i = rng.randint(1, 4)
            n_i = rng.randint(1, 3)
            k_prime = rng.randint(1, 2)
            blk = Instance.build(
                [[[rational(rng) for _ in range(n_i)] for _ in range(m_i)]]
            ).blocks[0]
            b_piece = tuple(rational(rng) for _ in range(m_i))
            lam_pieces = tuple(
                tuple(rational(rng) for _ in range(m_i)) for _ in range(k_prime)
            )
            count = 0
            for j in range(n_i + 1):
                for s1, s2 in itertools.combinations(
                    itertools.combinations(range(n_i), j), 2
                ):
                    f1, f2 = (
                        reference_forms.residual_quadratic(blk, b_piece, lam_pieces, sup)
                        for sup in (s1, s2)
                    )
                    if not form_is_zero(form_sub(f1, f2)):
                        count += 1
            assert count <= 2 ** (2 * n_i)
        # Generic arrangements hit the exact cell-count identity.
        for _ in range(20):
            n = rng.randint(1, 8)
            dim = rng.randint(1, 3)
            ts = rng.sample(range(1, 50), n)
            planes = [
                Hyperplane(
                    functional=LinearFunctional(
                        tuple(Fraction(t) ** j for j in range(dim)),
                        -Fraction(t) ** dim,
                    )
                )
                for t in ts
            ]
            cells = enumerate_cells(planes, dim)
            assert len(cells) == predicted_cell_bound(n, dim)


def test_criterion_6_residual_forms_match_least_squares():
    with criterion(6, limit=60):
        rng = random.Random(606)
        for _ in range(50):
            m_i = rng.randint(1, 4)
            n_i = rng.randint(1, 3)
            k_prime = rng.randint(1, 2)
            blk = Instance.build(
                [[[rational(rng) for _ in range(n_i)] for _ in range(m_i)]]
            ).blocks[0]
            b_piece = tuple(rational(rng) for _ in range(m_i))
            lam_pieces = tuple(
                tuple(rational(rng) for _ in range(m_i)) for _ in range(k_prime)
            )
            supports = [
                sup
                for j in range(n_i + 1)
                for sup in itertools.combinations(range(n_i), j)
            ]
            rows = residual_quadratic(blk, b_piece, lam_pieces)
            assert list(rows) == supports
            for _ in range(20):
                lam = tuple(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                    for _ in range(k_prime)
                )
                target = list(b_piece)
                for coeff, piece in zip(lam, lam_pieces):
                    for r in range(m_i):
                        target[r] -= coeff * piece[r]
                for sup in supports:
                    _, res2 = least_squares([blk.column(c) for c in sup], target)
                    row, scale = rows[sup]
                    assert row_value(row, ext(lam)) / scale == res2


def coverage_problems():
    def make(blocks, b, cols, sigma):
        return ReducedProblem(
            blocks=Instance.build(blocks).blocks,
            b=tuple(Fraction(v) for v in b),
            lambda_cols=tuple(tuple(Fraction(v) for v in col) for col in cols),
            tags=tuple(range(len(cols))),
            sigma_p=sigma,
        )

    return [
        make([[[1, 2], [0, 1]], [[1], [1]]], (1, 3, 0, 2), [(1, -1, 2, 0)], 2),
        make(
            [[[2, 1], [1, 1]], [[1, 0], [0, 1]]],
            (1, 0, 2, -1),
            [(1, 1, 0, 1)],
            2,
        ),
        make(
            [[[1, 2], [0, 1]], [[1], [1]]],
            (1, 3, 0, 2),
            [(1, -1, 2, 0), (0, 1, 1, 1)],
            2,
        ),
        make(
            [[[1, 1], [1, -1]], [[2], [1]]],
            (2, 0, 1, 1),
            [(1, 0, 1, 0), (0, 1, 0, 1)],
            1,
        ),
    ]


def test_criterion_7_cell_closure_coverage():
    # The lifted walk's candidates hold an optimum at every lambda: the
    # smallest residual among them equals the pinned-lambda optimum.
    with criterion(7):
        rng = random.Random(707)
        for rp in coverage_problems():
            pieces = []
            r0 = 0
            for blk in rp.blocks:
                rows = range(r0, r0 + blk.rows)
                b_piece = tuple(rp.b[r] for r in rows)
                lam_pieces = tuple(
                    tuple(col[r] for r in rows) for col in rp.lambda_cols
                )
                pieces.append((blk, b_piece, lam_pieces))
                r0 += blk.rows
            starts = [0, *itertools.accumulate(blk.cols for blk in rp.blocks)]
            level = min(rp.sigma_p, rp.n_total)
            candidates, _, _ = _extended_candidates(_context(rp), level)
            forms = []
            for chi in candidates:
                forms.append([
                    reference_forms.residual_quadratic(
                        blk,
                        b_piece,
                        lam_pieces,
                        tuple(c - starts[i] for c in chi if starts[i] <= c < starts[i + 1]),
                    )
                    for i, (blk, b_piece, lam_pieces) in enumerate(pieces)
                ])
            for _ in range(250):
                lam = tuple(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(rp.k_prime)
                )
                expected, _ = fixed_lambda_opt(rp, lam)
                best = min(
                    sum(reference_forms.eval_form(form, lam) for form in per_block)
                    for per_block in forms
                )
                assert best == expected


def test_criterion_8_budget_monotonicity_and_full_relaxation():
    with criterion(8):
        for base, _, mine in master_sweep():
            assert all(a >= b for a, b in zip(mine, mine[1:]))
            cols = stacked_columns(base)
            if base.intercept is not None:
                cols.append(base.intercept)
            _, res2 = least_squares(cols, base.b)
            assert mine[-1] == res2
