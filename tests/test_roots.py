import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import blocksel.roots as roots_module
from blocksel.cover import _pmul
import reference_roots
from blocksel.model import InvariantError
from blocksel.roots import (
    AlgebraicNumber,
    ipoly_eval_sign,
    ipoly_primitive,
    isolate_real_roots,
    sort_unique_roots,
    sturm_count,
)
from reference_roots import library_repr, library_value
from reference_roots import library_samples as separating_samples

small_fracs = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=4
)


def test_squarefree_part_refuses_a_gcd_that_does_not_divide(monkeypatch):
    # x^3 + x is not divisible by a claimed gcd x + 1, the last member of
    # a Sturm chain that is not its own.
    monkeypatch.setattr(roots_module, "_sturm_chain", lambda p: [p, (1, 1)])
    with pytest.raises(InvariantError, match="gcd must divide"):
        isolate_real_roots((0, 1, 0, 1))


@given(
    st.lists(st.integers(-60, 60), min_size=1, max_size=6).filter(lambda cs: cs[-1] != 0)
)
def test_content_division_keeps_one_rule(coeffs):
    # Nonzero normalized polynomials: the lead coefficient is nonzero.
    p = tuple(coeffs)
    primitive = ipoly_primitive(p)
    assert math.gcd(*primitive) == 1 and primitive[-1] > 0
    multiple = p[-1] // primitive[-1]
    assert tuple(multiple * c for c in primitive) == p
    scaled = roots_module._positive_scale(p)
    assert math.gcd(*scaled) == 1
    assert [(c > 0) - (c < 0) for c in scaled] == [(c > 0) - (c < 0) for c in p]
    assert ipoly_primitive(()) == roots_module._positive_scale(()) == ()


def test_isolate_sqrt_two():
    # x^2 - 2, little-endian coefficients.
    roots = isolate_real_roots((-2, 0, 1))
    assert len(roots) == 2
    lo, hi = roots
    assert lo.cmp(AlgebraicNumber.rational(Fraction(-3, 2))) == 1
    assert lo.cmp(AlgebraicNumber.rational(Fraction(-7, 5))) == -1
    assert hi.cmp(AlgebraicNumber.rational(Fraction(7, 5))) == 1
    assert hi.cmp(AlgebraicNumber.rational(Fraction(3, 2))) == -1


def test_isolate_rational_roots_exactly():
    # (x - 2)(x + 2) = x^2 - 4 has rational roots found as exact values.
    roots = isolate_real_roots((-4, 0, 1))
    assert [library_value(r) for r in roots] == [-2, 2]


def test_isolate_no_real_roots():
    assert isolate_real_roots((1, 0, 1)) == []


def test_isolate_linear():
    (root,) = isolate_real_roots((3, 2))
    assert library_value(root) == Fraction(-3, 2)


def test_isolate_repeated_root_once():
    # (x - 1)^2 = x^2 - 2x + 1
    roots = isolate_real_roots((1, -2, 1))
    assert len(roots) == 1
    assert library_value(roots[0]) == 1


def test_isolate_negative_lead_double_root_once():
    # -(x - 1)^2: the content and sign are divided out before the quadratic.
    roots = isolate_real_roots((-1, 2, -1))
    assert [library_value(r) for r in roots] == [1]


def test_cubics_with_repeated_factors_fall_to_lower_degree():
    # (x - 1)^3 keeps the line x - 1 after the squarefree step.
    (root,) = isolate_real_roots((-1, 3, -3, 1))
    assert library_value(root) == 1
    # (x - 1)^2 (x + 2) = x^3 - 3x + 2 keeps the quadratic (x - 1)(x + 2).
    roots = isolate_real_roots((2, -3, 0, 1))
    assert [library_value(r) for r in roots] == [-2, 1]


def test_cubic_mixed_roots():
    # (x^2 - 2)(x - 1) = x^3 - x^2 - 2x + 2
    roots = isolate_real_roots((2, -2, -1, 1))
    assert len(roots) == 3
    assert roots[1].cmp(AlgebraicNumber.rational(Fraction(1))) == 0
    assert roots[0].cmp(roots[1]) == -1
    assert roots[1].cmp(roots[2]) == -1


def test_rational_midpoint_root_lands_between_its_neighbours():
    # x^3 - 2x: the first bisection midpoint, 0, is a root, and the roots
    # -sqrt(2) and sqrt(2) come from the halves on either side of it.
    roots = isolate_real_roots((0, -2, 0, 1))
    assert len(roots) == 3
    assert library_value(roots[1]) == 0
    assert roots[0].cmp(roots[1]) == -1
    assert roots[1].cmp(roots[2]) == -1
    assert roots[0].cmp(AlgebraicNumber.rational(Fraction(-7, 5))) == -1
    assert roots[2].cmp(AlgebraicNumber.rational(Fraction(7, 5))) == 1


def test_sort_unique_merges_equal_roots():
    a = isolate_real_roots((-2, 0, 1))[1]
    b = isolate_real_roots((-2, 0, 1))[1]
    c = AlgebraicNumber.rational(Fraction(1))
    merged = sort_unique_roots([a, c, b])
    assert len(merged) == 2
    assert library_value(merged[0]) == 1


def test_separating_samples_brackets_roots():
    roots = sort_unique_roots(
        [AlgebraicNumber.rational(Fraction(0)), AlgebraicNumber.rational(Fraction(1, 2)), AlgebraicNumber.rational(Fraction(1))]
    )
    samples = separating_samples(roots)
    assert len(samples) == 4
    assert samples[0] < 0 < samples[1] < Fraction(1, 2) < samples[2] < 1 < samples[3]


def test_separating_samples_empty():
    assert separating_samples([]) == [0]


@given(st.lists(small_fracs, min_size=1, max_size=3, unique=True))
def test_isolate_finds_planted_rational_roots(planted):
    # Expand prod (q_i x - p_i) over the planted rationals p_i / q_i.
    poly = [1]
    for r in planted:
        p, q = r.numerator, r.denominator
        nxt = [0] * (len(poly) + 1)
        for i, cf in enumerate(poly):
            nxt[i] += cf * (-p)
            nxt[i + 1] += cf * q
        poly = nxt
    roots = isolate_real_roots(tuple(poly))
    assert len(roots) == len(planted)
    for expect, got in zip(sorted(planted), roots):
        assert got.cmp(AlgebraicNumber.rational(expect)) == 0


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=5))
def test_samples_invariant_signs(coeffs):
    """Sample points are never roots of the polynomial they separate."""
    if all(c == 0 for c in coeffs):
        coeffs = coeffs[:-1] + [1]
    roots = isolate_real_roots(tuple(coeffs))
    if not roots:
        return
    for point in separating_samples(roots):
        assert ipoly_eval_sign(tuple(coeffs), point) != 0


def test_interval_root_comparison_with_shared_poly():
    lo, hi = isolate_real_roots((-2, 0, 1))
    assert lo.cmp(hi) == -1
    again_lo, _ = isolate_real_roots((-2, 0, 1))
    assert lo.cmp(again_lo) == 0


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        isolate_real_roots((0, 0))


def test_integer_remainders_match_the_fraction_euclid(monkeypatch):
    # p and q share a common factor, and p carries a repeated one (q too on
    # odd trials); contents and lead signs vary.  The integer pseudo-
    # division must give the reference's gcd, squarefree part and Sturm
    # chain, hence the same counts and isolating intervals.
    rng = random.Random(61)

    def poly(degree):
        if degree == 2 and rng.random() < 0.3:
            # c x^2 + d, with no x term: a remainder step then cancels two
            # degrees at once, so an odd number of steps meets a negative
            # lead, and only |lead| keeps the Sturm signs.
            return (rng.randint(1, 4), 0, rng.randint(1, 3))
        coeffs = [rng.randint(-4, 4) for _ in range(degree)]
        return (*coeffs, rng.choice((-3, -2, -1, 1, 2, 3)))

    def product(*factors):
        out = (rng.choice((-6, -2, -1, 1, 3)),)
        for f in factors:
            out = _pmul(out, f)
        return out

    for trial in range(150):
        common = poly(rng.randint(1, 2))
        repeated = poly(1)
        power = (repeated,) * rng.randint(2, 3)
        p = product(common, *power, poly(rng.randint(0, 2)))
        q = product(common, poly(rng.randint(0, 2)), *(power[:2] if trial % 2 else ()))
        gcd = roots_module.ipoly_gcd(p, q)
        assert gcd == reference_roots.ipoly_gcd(p, q)
        assert len(gcd) >= len(common)
        part = reference_roots.integer_squarefree(p)
        assert part == reference_roots.ipoly_squarefree(p)
        chain = roots_module._sturm_chain(part)
        reference_chain = reference_roots._sturm_chain(part)
        assert chain == reference_chain
        for _ in range(6):
            lo, hi = sorted(Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(2))
            if lo == hi or ipoly_eval_sign(part, lo) == 0 or ipoly_eval_sign(part, hi) == 0:
                continue
            assert sturm_count(lo, hi, chain) == sturm_count(lo, hi, reference_chain)
        got = [(library_value(r), r.poly, r.lo, r.hi) for r in isolate_real_roots(p)]
        with monkeypatch.context() as patch:
            patch.setattr(roots_module, "_sturm_chain", reference_roots._sturm_chain)
            expected = [(library_value(r), r.poly, r.lo, r.hi) for r in isolate_real_roots(p)]
        assert got == expected


def test_the_chain_gcd_divides_out_repeated_factors_as_the_gcd_step_did():
    # isolate_real_roots reads gcd(p, p') off the last member of p's Sturm
    # chain.  On polynomials of degree <= 7, some with planted repeated
    # factors, its roots and brackets equal those of the squarefree part
    # found by a separate gcd with the derivative.
    rng = random.Random(67)
    repeated = 0
    for trial in range(400):
        p, degree = (rng.choice((-2, -1, 1, 3)),), rng.randint(1, 7)
        while len(p) - 1 < degree:
            factor = (*(rng.randint(-3, 3) for _ in range(rng.randint(1, 2))), rng.randint(1, 2))
            for _ in range(rng.choice((1, 1, 2, 3))):
                if len(p) + len(factor) - 2 <= degree:
                    p = _pmul(p, factor)
        part = reference_roots.integer_squarefree(p)
        repeated += len(part) < len(p) and len(p) >= 4
        got = [(r.poly, r.lo, r.hi, r.k, r.rising) for r in isolate_real_roots(p)]
        expected = [(r.poly, r.lo, r.hi, r.k, r.rising) for r in isolate_real_roots(part)]
        assert got == expected
    assert repeated >= 100


def _planted(*factors):
    """The integer product of the given coefficient tuples."""
    out = (1,)
    for f in factors:
        out = _pmul(out, f)
    return out


def _assert_isolating(root):
    """The bracket holds the root of its polynomial and no other."""
    if root.lo == root.hi:
        assert ipoly_eval_sign(root.poly, root.lo, root.k) == 0
        return
    assert root.lo < root.hi
    assert ipoly_eval_sign(root.poly, root.lo, root.k) != 0
    assert ipoly_eval_sign(root.poly, root.hi, root.k) != 0
    chain = reference_roots._sturm_chain(root.poly)
    assert sturm_count(root.lo, root.hi, chain, root.k) == 1
    assert (ipoly_eval_sign(root.poly, root.hi, root.k) > 0) == root.rising


def _as_reference(root):
    """The library root as a Fraction-interval reference root."""
    scale = 1 << root.k
    if root.lo == root.hi:
        return reference_roots.AlgebraicNumber.rational(Fraction(root.lo, scale))
    return reference_roots.AlgebraicNumber.interval_root(
        root.poly, Fraction(root.lo, scale), Fraction(root.hi, scale)
    )


def _assert_batch_matches_reference(polys):
    """Dyadic isolation, order and deduplication equal the Fraction reference."""
    got = sort_unique_roots([r for p in polys for r in isolate_real_roots(p)])
    expected = reference_roots.sort_unique_roots(
        [r for p in polys for r in reference_roots.isolate_real_roots(p)]
    )
    assert len(got) == len(expected)
    for root, reference in zip(got, expected):
        _assert_isolating(root)
        assert _as_reference(root).cmp(reference) == 0, library_repr(root)
    for below, above in zip(got, got[1:]):
        assert roots_module._apart(below, above)
    return got


def test_quartics_sharing_a_quadratic_factor_keep_the_shared_roots_once(monkeypatch):
    # (x^2 - 2)(x^2 - 3) and (x^2 - 2)(5x^2 - 1) share +-sqrt(2): six roots.
    # The shared pair meets in brackets that never part, so the gcd test
    # must run, and it finds the common factor.
    gcds = []
    library_gcd = roots_module.ipoly_gcd

    def spy(p, q):
        gcds.append(library_gcd(p, q))
        return gcds[-1]

    monkeypatch.setattr(roots_module, "ipoly_gcd", spy)
    shared = (-2, 0, 1)
    got = _assert_batch_matches_reference(
        [_planted(shared, (-3, 0, 1)), _planted(shared, (-1, 0, 5)), shared]
    )
    assert len(got) == 6
    assert shared in gcds


def test_roots_on_bisection_points_are_exact_and_ordered():
    # x^3 - 2x bisects at 0 first.  (2x - 1)(8x - 3)(8x - 5)(x^2 - 3) has
    # three roots in (0, 1), whose midpoint 1/2 is one of them; 3/8 and 5/8
    # are dyadics too, on either side of the hole around 1/2.
    cubic = (0, -2, 0, 1)
    quintic = _planted((-1, 2), (-3, 8), (-5, 8), (-3, 0, 1))
    got = _assert_batch_matches_reference([cubic, quintic])
    assert len(got) == 8
    exact = {Fraction(r.lo, 1 << r.k) for r in got if r.lo == r.hi}
    assert {Fraction(0), Fraction(1, 2)} <= exact
    # The same dyadics given as lines merge with the polynomials' roots.
    lines = [(-1, 2), (-3, 8), (-5, 8), (0, 1)]
    assert len(_assert_batch_matches_reference([cubic, quintic, *lines])) == 8


@given(
    st.lists(small_fracs, min_size=1, max_size=4, unique=True),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)), max_size=2),
    st.data(),
)
def test_planted_roots_sort_and_merge_as_the_reference(planted, quadratics, data):
    # Polynomials with planted rational roots, some with an extra quadratic
    # factor x^2 * s + t, share roots at random: the batch must come out in
    # the reference's order with each shared root once.
    lines = [(-r.numerator, r.denominator) for r in planted]
    extras = [(t, 0, s) for t, s in quadratics]
    polys = []
    for _ in range(3):
        chosen = data.draw(st.lists(st.sampled_from(lines + extras), min_size=1, max_size=4))
        polys.append(_planted(*chosen))
    _assert_batch_matches_reference(polys)
