import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blocksel.model import BlockStructure
from blocksel.solver import aug_set
from reference_separable import (
    ValTable,
    build_d,
    chain_solve,
    d_pattern_bound,
    delta_value,
    diag_greedy,
    dp_solve,
    q_closeness,
)

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)


def tables(max_h=4, max_n=3):
    def build(n_vec):
        return st.tuples(
            *[st.lists(rationals, min_size=n + 1, max_size=n + 1) for n in n_vec]
        ).map(lambda rows: ValTable.from_rows(list(rows)))

    return st.lists(
        st.integers(min_value=1, max_value=max_n), min_size=1, max_size=max_h
    ).flatmap(build)


def exhaustive_best(table, sigma):
    structure = table.structure()
    best = None
    for alloc in itertools.product(*[range(n + 1) for n in structure.n_vec]):
        if sum(alloc) != sigma:
            continue
        value = table.total(alloc)
        if best is None or (value, alloc) < best:
            best = (value, alloc)
    assert best is not None
    return best


SPEC_TABLE = ValTable.from_rows([[5, 1], [4, 3]])


def test_diag_greedy_sigma_one():
    a = [Fraction(1), Fraction(2), Fraction(0)]
    bp = [Fraction(3), Fraction(-5), Fraction(7)]
    x, objective, chosen = diag_greedy(a, bp, 1)
    assert chosen == [1]
    assert x == [0, Fraction(-5, 2), 0]
    assert objective == 58


def test_diag_greedy_empty_and_saturated():
    a = [Fraction(1), Fraction(2), Fraction(0)]
    bp = [Fraction(3), Fraction(-5), Fraction(7)]
    _, objective, chosen = diag_greedy(a, bp, 0)
    assert (objective, chosen) == (83, [])
    _, objective, chosen = diag_greedy(a, bp, 3)
    # Index 2 has a zero diagonal and can never be used.
    assert (objective, chosen) == (49, [0, 1])


@given(
    st.lists(rationals, min_size=1, max_size=6),
    st.data(),
)
def test_diag_greedy_matches_brute_force(a, data):
    n = len(a)
    bp = data.draw(st.lists(rationals, min_size=n, max_size=n))
    sigma = data.draw(st.integers(0, n))
    _, objective, _ = diag_greedy([Fraction(v) for v in a], [Fraction(v) for v in bp], sigma)
    best = None
    for size in range(sigma + 1):
        for sup in itertools.combinations(range(n), size):
            total = Fraction(0)
            for i in range(n):
                if i in sup and a[i] != 0:
                    continue
                total += Fraction(bp[i]) ** 2
            if best is None or total < best:
                best = total
    assert objective == best


def test_q_closeness():
    assert q_closeness((1, 0), (2, 0)) == 0
    assert q_closeness((1, 0), (0, 2)) == 1
    assert q_closeness((2, 0, 1), (0, 2, 2)) == 2
    j_from, j_to = (2, 0, 1), (0, 2, 2)
    l1 = sum(abs(a - b) for a, b in zip(j_from, j_to))
    assert l1 == 2 * 2 + 1


def test_q_closeness_rejects_level_mismatch():
    with pytest.raises(ValueError):
        q_closeness((1, 0), (1, 0))


def test_aug_set_unit_blocks():
    s = BlockStructure(3, (1, 1, 1))
    assert aug_set(s, (1, 0, 0)) == [(1, 0, 1), (1, 1, 0)]


def test_aug_set_theta_two():
    s = BlockStructure(2, (2, 2))
    assert aug_set(s, (1, 0)) == [(0, 2), (1, 1), (2, 0)]


def test_aug_set_full_allocation_is_empty():
    s = BlockStructure(2, (2, 1))
    assert aug_set(s, (2, 1)) == []


@given(tables(max_h=3, max_n=2))
def test_aug_set_matches_filter_oracle(table):
    structure = table.structure()
    levels = range(structure.n_total)
    for s in levels:
        for source in itertools.product(*[range(n + 1) for n in structure.n_vec]):
            if sum(source) != s:
                continue
            got = aug_set(structure, source)
            expected = []
            for target in itertools.product(*[range(n + 1) for n in structure.n_vec]):
                if sum(target) != s + 1:
                    continue
                if q_closeness(source, target) <= structure.theta_bar:
                    expected.append(target)
            assert got == sorted(expected)
            for target in got:
                l1 = sum(abs(a - b) for a, b in zip(source, target))
                assert l1 <= 2 * structure.theta_bar + 1


def test_delta_value_on_spec_table():
    assert delta_value(SPEC_TABLE, (0, 0), (1, 0)) == -4
    assert delta_value(SPEC_TABLE, (0, 0), (0, 1)) == -1
    assert delta_value(SPEC_TABLE, (1, 0), (1, 1)) == -1


def test_build_d_two_unit_blocks():
    d = build_d(SPEC_TABLE.structure(), table=SPEC_TABLE)
    assert len(d) == 2


def test_build_d_single_wide_block():
    table = ValTable.from_rows([[9, 4, 1]])
    d = build_d(table.structure(), table=table)
    assert len(d) == 2
    assert sorted(x.value for x in d) == [-5, -3]


def test_build_d_respects_pattern_bound():
    structure = BlockStructure(2, (2, 1))
    table = ValTable.from_rows([[7, 3, 2], [5, 1]])
    d = build_d(structure, table=table)
    assert len(d) <= d_pattern_bound(structure)


def test_chain_solve_spec_table():
    assert chain_solve(SPEC_TABLE, 1) == ((1, 0), 5)
    assert chain_solve(SPEC_TABLE, 2) == ((1, 1), 4)
    assert chain_solve(SPEC_TABLE, 0) == ((0, 0), 9)


def test_chain_solve_rejects_bad_sigma():
    with pytest.raises(ValueError):
        chain_solve(SPEC_TABLE, 3)
    with pytest.raises(ValueError):
        chain_solve(SPEC_TABLE, -1)


def test_dp_solve_spec_table():
    assert dp_solve(SPEC_TABLE, 1)[1] == 5
    assert dp_solve(SPEC_TABLE, 0)[1] == 9
    single = ValTable.from_rows([[7, 5, 2]])
    assert dp_solve(single, 2)[1] == 2


@given(tables())
def test_chain_dp_exhaustive_agree(table):
    structure = table.structure()
    for sigma in range(structure.n_total + 1):
        expected_value, _ = exhaustive_best(table, sigma)
        chain_alloc, chain_value = chain_solve(table, sigma)
        dp_alloc, dp_value = dp_solve(table, sigma)
        assert chain_value == expected_value
        assert dp_value == expected_value
        assert table.total(chain_alloc) == chain_value
        assert table.total(dp_alloc) == dp_value


@given(tables(max_h=3, max_n=3))
def test_proximity_between_optimal_levels(table):
    """Some optimal successor of every optimal allocation stays within theta_bar."""
    structure = table.structure()
    allocations = list(
        itertools.product(*[range(n + 1) for n in structure.n_vec])
    )
    for s in range(structure.n_total):
        level = [a for a in allocations if sum(a) == s]
        nxt = [a for a in allocations if sum(a) == s + 1]
        best_s = min(table.total(a) for a in level)
        best_s1 = min(table.total(a) for a in nxt)
        for source in level:
            if table.total(source) != best_s:
                continue
            close = [
                t
                for t in nxt
                if table.total(t) == best_s1
                and q_closeness(source, t) <= structure.theta_bar
            ]
            assert close, (source, s)


@given(tables())
def test_build_d_covers_chain_steps(table):
    """Every exchange the chain can take appears in D by pattern and value."""
    structure = table.structure()
    d = build_d(structure, table=table)
    seen = {(x.changes, x.value) for x in d}
    alloc = tuple(0 for _ in range(structure.h))
    for _ in range(structure.n_total):
        for target in aug_set(structure, alloc):
            changes = tuple(
                (i, f, t)
                for i, (f, t) in enumerate(zip(alloc, target))
                if f != t
            )
            value = delta_value(table, alloc, target)
            assert (changes, value) in seen
        alloc, _ = chain_solve(
            table, sum(alloc) + 1
        )
