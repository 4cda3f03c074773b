"""Exact real-root isolation for integer polynomials.

The conic cover needs, for a batch of low-degree polynomials, the sorted distinct
real roots plus rational sample points strictly between consecutive roots.
Roots are kept as exact objects: either a rational value or a squarefree
integer polynomial with an isolating interval that can be refined on demand.
Root order, comparisons, deduplication and separator selection are all
decided exactly; no float is ever computed.

Polynomials are coefficient tuples in increasing degree order, so (c, b, a)
is a x^2 + b x + c.  Positive scaling is ignored everywhere, which lets the
Sturm chains stay in integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .model import InvariantError

IPoly = tuple[int, ...]


def ipoly_normalize(coeffs: Sequence[int]) -> IPoly:
    """Strip trailing zero coefficients."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ipoly_degree(p: IPoly) -> int:
    return len(p) - 1


def ipoly_primitive(p: IPoly) -> IPoly:
    """Divide out the content, keeping the leading coefficient positive."""
    if not p:
        return p
    g = 0
    for c in p:
        g = math.gcd(g, abs(c))
    if g == 0:
        return ()
    if p[-1] < 0:
        g = -g
    return tuple(c // g for c in p)


def ipoly_derivative(p: IPoly) -> IPoly:
    return ipoly_normalize(tuple(i * p[i] for i in range(1, len(p))))


def ipoly_eval_sign(p: IPoly, point: Fraction) -> int:
    """Sign of p at a rational point, via the integer value p(a/b) * b^deg."""
    if not p:
        return 0
    num, den = point.numerator, point.denominator
    acc = p[-1]
    for i in range(len(p) - 2, -1, -1):
        acc = acc * num + p[i] * den ** (len(p) - 1 - i)
    return (acc > 0) - (acc < 0)


def _pseudo_divmod(a: IPoly, b: IPoly) -> tuple[IPoly, IPoly]:
    """Integer q and r with |lead(b)|^s a = q b + r and deg r < deg b.

    Each step scales the running remainder by |lead(b)| and cancels its top
    term, so q and r are positive multiples of the rational quotient and
    remainder: Sturm chains keep their signs, and no Fraction is built.
    """
    lead = b[-1]
    mag, sign = abs(lead), (1 if lead > 0 else -1)
    db = len(b) - 1
    rem = list(a)
    quo = [0] * max(len(a) - db, 0)
    for shift in range(len(a) - 1 - db, -1, -1):
        top = rem.pop() * sign
        if top:
            if mag != 1:
                rem = [c * mag for c in rem]
                quo = [c * mag for c in quo]
            quo[shift] = top
            for i in range(db):
                rem[shift + i] -= top * b[i]
    return ipoly_normalize(quo), ipoly_normalize(rem)


def ipoly_gcd(p: IPoly, q: IPoly) -> IPoly:
    """Primitive gcd of two integer polynomials, positive lead.

    A primitive remainder sequence (Brown, J. ACM 1971): each pseudo-
    remainder loses its content before the next division, so the integers
    stay as small as the gcd's.
    """
    a = ipoly_primitive(ipoly_normalize(p))
    b = ipoly_primitive(ipoly_normalize(q))
    while b:
        a, b = b, ipoly_primitive(_pseudo_divmod(a, b)[1])
    return a


def ipoly_squarefree(p: IPoly) -> IPoly:
    """The squarefree part p / gcd(p, p'), primitive with positive lead."""
    p = ipoly_primitive(ipoly_normalize(p))
    if len(p) <= 1:
        return p
    g = ipoly_gcd(p, ipoly_derivative(p))
    if len(g) <= 1:
        return p
    quo, rem = _pseudo_divmod(p, g)
    if rem:
        raise InvariantError("gcd must divide the polynomial")
    return ipoly_primitive(quo)


def _positive_scale(p: IPoly) -> IPoly:
    """Divide out the content without touching the sign of the polynomial.

    Sturm chain members may only be scaled by positive constants, so the
    lead-sign normalization of ipoly_primitive must not be used here.
    """
    if not p:
        return p
    g = 0
    for c in p:
        g = math.gcd(g, abs(c))
    return tuple(c // g for c in p)


def _sturm_chain(p: IPoly) -> list[IPoly]:
    chain: list[IPoly] = [p, ipoly_derivative(p)]
    while len(chain[-1]) > 1:
        r = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_positive_scale(tuple(-c for c in r)))
    return [c for c in chain if c]


def _variations(chain: list[IPoly], point: Fraction) -> int:
    signs = []
    for member in chain:
        s = ipoly_eval_sign(member, point)
        if s != 0:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(lo: Fraction, hi: Fraction, chain: list[IPoly]) -> int:
    """Number of distinct real roots in the open interval (lo, hi).

    chain is the Sturm chain of a squarefree polynomial p, built once by
    the caller with _sturm_chain and shared by every count on p.  Both
    endpoints must be non-roots of p.
    """
    return _variations(chain, lo) - _variations(chain, hi)


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

    def __repr__(self) -> str:  # debugging aid only
        if self.value is not None:
            return f"AlgebraicNumber({self.value})"
        return f"AlgebraicNumber({self.poly}, ({self.lo}, {self.hi}))"


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
    # A line has one root and _quadratic_roots reports a double root once,
    # so only cubics and beyond need their repeated factors divided out.
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
    roots: list[AlgebraicNumber] = []

    def recurse(a: Fraction, b: Fraction, count: int) -> None:
        if count == 0:
            return
        if count == 1:
            roots.append(AlgebraicNumber.interval_root(p, a, b))
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
            roots.append(AlgebraicNumber.rational(mid))
            recurse(m_hi, b, sturm_count(m_hi, b, chain))
            return
        left = sturm_count(a, mid, chain)
        recurse(a, mid, left)
        recurse(mid, b, count - left)

    recurse(lo, hi, sturm_count(lo, hi, chain))
    return roots


def _quadratic_roots(p: IPoly) -> list[AlgebraicNumber]:
    """The distinct real roots of a primitive quadratic with positive lead, in order.

    With a > 0 the root -b - sqrt(disc) over 2a is the smaller one, so no
    caller may pass a negative lead; isolate_real_roots makes it positive.
    """
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
    # Irrational pair; the quadratic is irreducible, hence squarefree.
    # Use integer brackets of sqrt(disc) for the initial isolation.
    return [
        AlgebraicNumber.interval_root(p, Fraction(-b - s - 1, 2 * a), Fraction(-b - s, 2 * a)),
        AlgebraicNumber.interval_root(p, Fraction(-b + s, 2 * a), Fraction(-b + s + 1, 2 * a)),
    ]


def sort_unique_roots(roots: list[AlgebraicNumber]) -> list[AlgebraicNumber]:
    """Sort a batch of roots from several polynomials and drop duplicates."""
    if not roots:
        return []
    import functools

    ordered = sorted(roots, key=functools.cmp_to_key(lambda a, b: a.cmp(b)))
    unique = [ordered[0]]
    for r in ordered[1:]:
        if unique[-1].cmp(r) != 0:
            unique.append(r)
    return unique


def sample_between(
    below: Optional[AlgebraicNumber], above: Optional[AlgebraicNumber]
) -> Fraction:
    """A rational strictly between two sorted distinct roots; None is unbounded.

    Both roots are refined as needed until their isolating intervals are
    disjoint.
    """
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
