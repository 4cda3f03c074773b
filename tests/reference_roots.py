"""The Fraction root layer, kept as a reference.

These are former blocksel.roots helpers, unchanged.  The gcd, the
squarefree part and the Sturm chain divided polynomials over the
rationals; the library now runs one integer pseudo-division for all
three.  AlgebraicNumber kept its isolating intervals with Fraction ends
and bisected them at Fraction midpoints; the library's roots carry
dyadic brackets in integers.  Tests compare the library against these.

integer_squarefree is the library's former integer squarefree step: a gcd
with the derivative, then one pseudo-division.  The library now reads the
gcd off the last member of the Sturm chain it builds anyway.

library_value and library_repr were blocksel.roots.AlgebraicNumber's value
property and __repr__; only tests read a library root as a Fraction.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Sequence

from blocksel.model import InvariantError
from blocksel import roots
from blocksel.roots import (
    IPoly,
    _positive_scale,
    ipoly_derivative,
    ipoly_degree,
    ipoly_eval_sign,
    ipoly_normalize,
    ipoly_primitive,
    sturm_count,
)


def _frac_polys_to_int(coeffs: Sequence[Fraction]) -> IPoly:
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return ipoly_normalize(tuple(int(c * den) for c in coeffs))


def _poly_divmod(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    db = len(b) - 1
    lead = b[-1]
    while len(rem) - 1 >= db and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db or not rem:
            break
        shift = len(rem) - 1 - db
        factor = rem[-1] / lead
        quo[shift] = factor
        for i in range(db + 1):
            rem[shift + i] -= factor * b[i]
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def ipoly_gcd(p: IPoly, q: IPoly) -> IPoly:
    """Primitive gcd of two integer polynomials (Euclid over the rationals)."""
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    while any(b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if not any(a):
        return ()
    return ipoly_primitive(_frac_polys_to_int(a))


def ipoly_squarefree(p: IPoly) -> IPoly:
    """The squarefree part p / gcd(p, p'), primitive with positive lead."""
    p = ipoly_primitive(ipoly_normalize(p))
    if len(p) <= 1:
        return p
    g = ipoly_gcd(p, ipoly_derivative(p))
    if len(g) <= 1:
        return p
    quo, rem = _poly_divmod([Fraction(c) for c in p], [Fraction(c) for c in g])
    if any(rem):
        raise InvariantError("gcd must divide the polynomial")
    return ipoly_primitive(_frac_polys_to_int(quo))


def integer_squarefree(p: IPoly) -> IPoly:
    """The squarefree part p / gcd(p, p'), primitive with positive lead."""
    p = ipoly_primitive(ipoly_normalize(p))
    if len(p) <= 1:
        return p
    g = roots.ipoly_gcd(p, ipoly_derivative(p))
    if len(g) <= 1:
        return p
    quo, rem = roots._pseudo_divmod(p, g)
    if rem:
        raise InvariantError("gcd must divide the polynomial")
    return ipoly_primitive(quo)


def _sturm_chain(p: IPoly) -> list[IPoly]:
    chain: list[IPoly] = [p, ipoly_derivative(p)]
    while len(chain[-1]) > 0 and ipoly_degree(chain[-1]) > 0:
        a = [Fraction(c) for c in chain[-2]]
        b = [Fraction(c) for c in chain[-1]]
        _, r = _poly_divmod(a, b)
        if not any(r):
            break
        chain.append(_positive_scale(_frac_polys_to_int([-c for c in r])))
    return [c for c in chain if c]


class AlgebraicNumber:
    """A real root, either exactly rational or isolated by an interval.

    For interval roots, poly is squarefree, primitive, positive-lead; the
    open interval (lo, hi) contains exactly one root of poly and both
    endpoints are non-roots.  refine() halves the interval.
    """

    __slots__ = ("value", "poly", "lo", "hi")

    def __init__(
        self,
        value: Optional[Fraction] = None,
        poly: Optional[IPoly] = None,
        lo: Optional[Fraction] = None,
        hi: Optional[Fraction] = None,
    ) -> None:
        self.value = value
        self.poly = poly
        self.lo = lo if value is None else value
        self.hi = hi if value is None else value

    @classmethod
    def rational(cls, value: Fraction) -> "AlgebraicNumber":
        return cls(value=Fraction(value))

    @classmethod
    def interval_root(cls, poly: IPoly, lo: Fraction, hi: Fraction) -> "AlgebraicNumber":
        return cls(poly=poly, lo=lo, hi=hi)

    def refine(self) -> None:
        if self.value is not None:
            return
        if self.poly is None or self.lo is None or self.hi is None:
            raise InvariantError("an interval root lacks its polynomial or interval")
        mid = (self.lo + self.hi) / 2
        s = ipoly_eval_sign(self.poly, mid)
        if s == 0:
            # The single root in the interval turned out to be rational.
            self.value = mid
            self.lo = self.hi = mid
            return
        if s == ipoly_eval_sign(self.poly, self.lo):
            self.lo = mid
        else:
            self.hi = mid

    def cmp(self, other: "AlgebraicNumber") -> int:
        """Exact three-way comparison."""
        if self.value is not None and other.value is not None:
            return (self.value > other.value) - (self.value < other.value)
        if self.value is not None:
            return -other._cmp_rational(self.value)
        if other.value is not None:
            return self._cmp_rational(other.value)
        return self._cmp_interval(other)

    def _cmp_rational(self, r: Fraction) -> int:
        # self is an interval root; decide its position relative to r.
        while True:
            if self.value is not None:
                return (self.value > r) - (self.value < r)
            if r <= self.lo:
                return 1
            if r >= self.hi:
                return -1
            if ipoly_eval_sign(self.poly, r) == 0:
                return 0  # r is the unique root in the interval
            # r is strictly inside but not the root; shrink toward the root.
            self.refine()

    def _cmp_interval(self, other: "AlgebraicNumber") -> int:
        # The Sturm chain of the two polynomials' common factor, built when
        # the intervals first overlap; empty when they share no root.
        chain: Optional[list[IPoly]] = None
        while True:
            if self.value is not None or other.value is not None:
                return self.cmp(other)
            if self.hi <= other.lo:
                return -1
            if other.hi <= self.lo:
                return 1
            if chain is None:
                if self.poly is None or other.poly is None:
                    raise InvariantError("an interval root lacks its polynomial")
                common = ipoly_gcd(self.poly, other.poly)
                chain = _sturm_chain(common) if ipoly_degree(common) >= 1 else []
            if chain:
                lo = max(self.lo, other.lo)
                hi = min(self.hi, other.hi)
                if lo < hi and ipoly_eval_sign(common, lo) != 0 and ipoly_eval_sign(common, hi) != 0:
                    if sturm_count(lo, hi, chain) >= 1:
                        # The shared root inside both intervals is both numbers.
                        return 0
            self.refine()
            other.refine()


def _root_bound(p: IPoly) -> Fraction:
    lead = abs(p[-1])
    biggest = max(abs(c) for c in p[:-1]) if len(p) > 1 else 0
    return Fraction(biggest, lead) + 1


def isolate_real_roots(poly: Sequence[int]) -> list[AlgebraicNumber]:
    """All distinct real roots of a nonzero integer polynomial, in increasing order.

    Bisection emits the roots left to right, a rational midpoint root between
    the roots of its two halves, so no sort is needed.
    """
    p = ipoly_primitive(ipoly_normalize(tuple(poly)))
    if not p:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if ipoly_degree(p) >= 3:
        p = ipoly_squarefree(p)
    if ipoly_degree(p) == 0:
        return []
    if ipoly_degree(p) == 1:
        return [AlgebraicNumber.rational(Fraction(-p[0], p[1]))]
    if ipoly_degree(p) == 2:
        return _quadratic_roots(p)
    chain = _sturm_chain(p)
    bound = _root_bound(p)
    lo, hi = -bound, bound
    # Endpoints beyond the Cauchy bound are never roots.
    found: list[AlgebraicNumber] = []

    def recurse(a: Fraction, b: Fraction, count: int) -> None:
        if count == 0:
            return
        if count == 1:
            found.append(AlgebraicNumber.interval_root(p, a, b))
            return
        mid = (a + b) / 2
        if ipoly_eval_sign(p, mid) == 0:
            # Shrink a hole around mid until it isolates only that root.
            w = (b - a) / 4
            while True:
                m_lo, m_hi = mid - w, mid + w
                if (
                    ipoly_eval_sign(p, m_lo) != 0
                    and ipoly_eval_sign(p, m_hi) != 0
                    and sturm_count(m_lo, m_hi, chain) == 1
                ):
                    break
                w /= 2
            recurse(a, m_lo, sturm_count(a, m_lo, chain))
            found.append(AlgebraicNumber.rational(mid))
            recurse(m_hi, b, sturm_count(m_hi, b, chain))
            return
        left = sturm_count(a, mid, chain)
        recurse(a, mid, left)
        recurse(mid, b, count - left)

    recurse(lo, hi, sturm_count(lo, hi, chain))
    return found


def _quadratic_roots(p: IPoly) -> list[AlgebraicNumber]:
    """The distinct real roots of a primitive quadratic with positive lead, in order."""
    c, b, a = p[0], p[1], p[2]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return [AlgebraicNumber.rational(Fraction(-b, 2 * a))]
    s = math.isqrt(disc)
    if s * s == disc:
        return [
            AlgebraicNumber.rational(Fraction(-b - s, 2 * a)),
            AlgebraicNumber.rational(Fraction(-b + s, 2 * a)),
        ]
    return [
        AlgebraicNumber.interval_root(p, Fraction(-b - s - 1, 2 * a), Fraction(-b - s, 2 * a)),
        AlgebraicNumber.interval_root(p, Fraction(-b + s, 2 * a), Fraction(-b + s + 1, 2 * a)),
    ]


def sort_unique_roots(found: list[AlgebraicNumber]) -> list[AlgebraicNumber]:
    """Sort a batch of roots from several polynomials and drop duplicates."""
    if not found:
        return []
    ordered = sorted(found, key=functools.cmp_to_key(lambda a, b: a.cmp(b)))
    unique = [ordered[0]]
    for r in ordered[1:]:
        if unique[-1].cmp(r) != 0:
            unique.append(r)
    return unique


def sample_between(
    below: Optional[AlgebraicNumber], above: Optional[AlgebraicNumber]
) -> Fraction:
    """A rational strictly between two sorted distinct roots; None is unbounded."""
    if below is None:
        return Fraction(0) if above is None else above.lo - 1
    if above is None:
        return below.hi + 1
    while not below.hi < above.lo:
        below.refine()
        above.refine()
    return (below.hi + above.lo) / 2


def separating_samples(sorted_roots: list[AlgebraicNumber]) -> list[Fraction]:
    """Rational points: one strictly below, between, and above the given roots.

    The roots must be sorted and distinct.
    """
    bounds = [None, *sorted_roots, None]
    return [sample_between(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def library_samples(sorted_roots: list) -> list[Fraction]:
    """The library's samples below, between and above sorted distinct
    blocksel.roots roots, as Fractions, for comparisons with rationals."""
    bounds = [None, *sorted_roots, None]
    return [
        Fraction(n, 1 << j)
        for n, j in (roots.sample_between(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
    ]


def library_value(root: roots.AlgebraicNumber) -> Optional[Fraction]:
    """A library root as a Fraction when it is known to be rational, else None."""
    if root.lo == root.hi:
        return Fraction(root.lo, 1 << root.k)
    if root.poly is not None and len(root.poly) == 2:
        return Fraction(-root.poly[0], root.poly[1])
    return None


def library_repr(root: roots.AlgebraicNumber) -> str:
    """A library root for assertion messages: its value, else its bracket."""
    value = library_value(root)
    if value is not None:
        return f"AlgebraicNumber({value})"
    return f"AlgebraicNumber({root.poly}, [{root.lo}, {root.hi}] / 2^{root.k})"
