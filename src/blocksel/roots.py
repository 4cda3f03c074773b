"""Exact real roots for the conic cover, in integer arithmetic.

The conic cover needs, for a batch of low-degree integer polynomials, the
sorted distinct real roots and sample points strictly between consecutive
roots; on each of its sample lines it needs the roots of integer
quadratics in sorted order, with samples between them.  Everything here is
decided in integers: no Fraction and no float is computed.

A root of a batch is an AlgebraicNumber: an integer polynomial and a dyadic
bracket [lo / 2^k, hi / 2^k] around the root, lo and hi integers
(Rouillier & Zimmermann, J. Comput. Appl. Math. 2004).  lo == hi means the
root is that dyadic exactly; otherwise the polynomial is squarefree, both
ends are non-roots and the root is its only one in the bracket.  Linear
and quadratic polynomials get their brackets in closed form (floor
division and math.isqrt); higher degrees by Sturm bisection at dyadic
points, with integer Horner evaluation.  sort_unique_roots sorts a batch
by the brackets' lower ends brought to one scale, and only neighbours
whose brackets meet reach the exact fallback, AlgebraicNumber.cmp: it
bisects the two apart, or proves them equal by a Sturm count of their
polynomials' gcd.

A root on a sample line is a surd: (p + q sqrt(d)) / r with r > 0 and q in
{-1, 0, 1}, the closed form of a quadratic's root (q = 0 for a rational
root).  surd_bracket brackets it at any precision with math.isqrt, and
surd_cmp, the exact fallback for brackets that meet, decides the sign of
a + b sqrt(d1) + c sqrt(d2) with two squarings.

Samples are the dyadics with the fewest bits strictly between two
brackets (dyadic_between), returned as pairs (n, j) meaning n / 2^j.

Polynomials are coefficient tuples in increasing degree order, so (c, b, a)
is a x^2 + b x + c.  Positive scaling is ignored everywhere, which lets the
Sturm chains stay in integer arithmetic.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .model import InvariantError

IPoly = tuple[int, ...]
Dyadic = tuple[int, int]  # (n, j): n / 2^j
Surd = tuple[int, int, int, int]  # (p, q, d, r): (p + q sqrt(d)) / r

# Bits after the binary point of a closed-form bracket.  Brackets that
# meet fall back to exact comparisons, so this only trades bracket cost
# against how often the fallback runs.
PRECISION = 32


def ipoly_normalize(coeffs: Sequence[int]) -> IPoly:
    """Strip trailing zero coefficients."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ipoly_degree(p: IPoly) -> int:
    return len(p) - 1


def _positive_scale(p: IPoly) -> IPoly:
    """Divide out the content without touching the sign of the polynomial.

    Sturm chain members may only be scaled by positive constants, so the
    lead-sign normalization of ipoly_primitive must not be used here.
    """
    g = math.gcd(*p)
    return tuple(c // g for c in p) if g else p


def ipoly_primitive(p: IPoly) -> IPoly:
    """Divide out the content, keeping the leading coefficient positive."""
    q = _positive_scale(p)
    return tuple(-c for c in q) if q and q[-1] < 0 else q


def ipoly_derivative(p: IPoly) -> IPoly:
    return ipoly_normalize(tuple(i * p[i] for i in range(1, len(p))))


def ipoly_eval_sign(p: IPoly, x, k: int = 0) -> int:
    """Sign of p at x / 2^k.

    x is an integer, or any rational when k is 0.  Horner's rule runs on
    p(x / 2^k) 2^(k deg p) = sum p_i x^i 2^(k (deg p - i)), so an integer
    x keeps every step in integers.
    """
    if not p:
        return 0
    acc = p[-1]
    shift = 0
    for c in reversed(p[:-1]):
        shift += k
        acc = acc * x + (c << shift)
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


def _sturm_chain(p: IPoly) -> list[IPoly]:
    chain: list[IPoly] = [p, ipoly_derivative(p)]
    while len(chain[-1]) > 1:
        r = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_positive_scale(tuple(-c for c in r)))
    return [c for c in chain if c]


def _variations(chain: list[IPoly], x, k: int) -> int:
    count = last = 0
    for member in chain:
        s = ipoly_eval_sign(member, x, k)
        if s:
            count += last == -s
            last = s
    return count


def sturm_count(lo, hi, chain: list[IPoly], k: int = 0) -> int:
    """Number of distinct real roots in the open interval (lo / 2^k, hi / 2^k).

    chain is the Sturm chain of a squarefree polynomial p, built once by
    the caller with _sturm_chain and shared by every count on p.  Both
    ends must be non-roots of p; as in ipoly_eval_sign they are integers,
    or any rationals when k is 0.
    """
    return _variations(chain, lo, k) - _variations(chain, hi, k)


class AlgebraicNumber:
    """A real root: an integer polynomial and a dyadic bracket around it.

    The root lies in [lo / 2^k, hi / 2^k].  lo == hi means it is exactly
    that dyadic.  Otherwise poly is squarefree, primitive and positive-
    lead, both ends are non-roots of poly, the root is its only one in
    the bracket, and rising tells whether poly is positive at the upper
    end.  refine() halves the bracket.
    """

    __slots__ = ("poly", "lo", "hi", "k", "rising")

    def __init__(self, poly: IPoly, lo: int, hi: int, k: int, rising: bool = True) -> None:
        self.poly = poly
        self.lo = lo
        self.hi = hi
        self.k = k
        self.rising = rising

    @classmethod
    def rational(cls, num, den: int = 1) -> "AlgebraicNumber":
        """The root num / den of den x - num; num may itself be a Fraction."""
        p, q = num.numerator, num.denominator * den
        g = math.gcd(p, q) * (1 if q > 0 else -1)
        p, q = p // g, q // g
        if q & (q - 1) == 0:
            # A power of two: the root is a dyadic, kept exactly.
            return cls((-p, q), p, p, q.bit_length() - 1)
        return cls((-p, q), *surd_bracket((p, 0, 0, q)), PRECISION)

    def refine(self) -> None:
        """Halve the bracket; a midpoint that is the root makes it exact."""
        if self.lo == self.hi:
            return
        mid = self.lo + self.hi
        self.lo <<= 1
        self.hi <<= 1
        self.k += 1
        s = ipoly_eval_sign(self.poly, mid, self.k)
        if s == 0:
            self.lo = self.hi = mid
        elif (s > 0) == self.rising:
            self.hi = mid
        else:
            self.lo = mid

    def cmp(self, other: "AlgebraicNumber") -> int:
        """Exact three-way comparison.

        When the answer is not 0 the two brackets end strictly apart.
        Brackets that meet are bisected, the wider first.  Two brackets
        that still meet once both are narrower than 2^-PRECISION, or whose
        polynomials are equal, are tested for a common root: a Sturm count
        of the polynomials' gcd over the brackets' intersection.
        """
        chain: Optional[list[IPoly]] = None
        while True:
            top = max(self.k, other.k)
            a_lo, a_hi = self.lo << (top - self.k), self.hi << (top - self.k)
            b_lo, b_hi = other.lo << (top - other.k), other.hi << (top - other.k)
            if a_hi < b_lo:
                return -1
            if b_hi < a_lo:
                return 1
            if a_lo == a_hi or b_lo == b_hi:
                if a_lo == a_hi and b_lo == b_hi:
                    return 0
                point, wide = (a_lo, other) if a_lo == a_hi else (b_lo, self)
                if ipoly_eval_sign(wide.poly, point, top) == 0:
                    return 0  # the point is the only root in wide's bracket
                wide.refine()
                continue
            a_width, b_width = a_hi - a_lo, b_hi - b_lo
            if chain is None and (
                self.poly == other.poly
                or max(a_width, b_width) << PRECISION <= 1 << top
            ):
                common = ipoly_gcd(self.poly, other.poly)
                chain = _sturm_chain(common) if ipoly_degree(common) >= 1 else []
            if chain:
                # Each end of the intersection ends one of the brackets, so
                # it is a non-root of that polynomial and of the gcd.
                lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
                if lo < hi and sturm_count(lo, hi, chain, top) >= 1:
                    return 0
            if a_width >= b_width:
                self.refine()
            if b_width >= a_width:
                other.refine()


def isolate_real_roots(poly: Sequence[int]) -> list[AlgebraicNumber]:
    """All distinct real roots of a nonzero integer polynomial, in increasing order.

    Bisection emits the roots left to right, a dyadic midpoint root between
    the roots of its two halves, so no sort is needed.
    """
    p = ipoly_primitive(ipoly_normalize(tuple(poly)))
    if not p:
        raise ValueError("cannot isolate roots of the zero polynomial")
    # A line has one root and _quadratic_roots reports a double root once,
    # so only cubics and beyond need their repeated factors divided out.
    # The last member of p's Sturm chain is gcd(p, p') up to a constant: p
    # is squarefree when it is a constant, and otherwise the quotient is
    # p's squarefree part, which gets a chain of its own.
    chain: list[IPoly] = []
    if ipoly_degree(p) >= 3:
        chain = _sturm_chain(p)
        if ipoly_degree(chain[-1]) >= 1:
            quo, rem = _pseudo_divmod(p, chain[-1])
            if rem:
                raise InvariantError("gcd must divide the polynomial")
            p = ipoly_primitive(quo)
            chain = _sturm_chain(p) if ipoly_degree(p) >= 3 else []
    if ipoly_degree(p) == 0:
        return []
    if ipoly_degree(p) == 1:
        return [AlgebraicNumber.rational(-p[0], p[1])]
    if ipoly_degree(p) == 2:
        return _quadratic_roots(p)
    roots: list[AlgebraicNumber] = []

    def split(a: int, va: int, b: int, vb: int, k: int) -> None:
        # (a / 2^k, b / 2^k) holds va - vb roots; va and vb are the sign
        # variations of the chain at its ends, which are non-roots.
        if va - vb == 0:
            return
        if va - vb == 1:
            roots.append(AlgebraicNumber(p, a, b, k))
            return
        a, b, k = a << 1, b << 1, k + 1
        mid = (a + b) >> 1
        if ipoly_eval_sign(p, mid, k) == 0:
            # Shrink a hole around mid until it isolates only that root.
            j = 1
            while True:
                lo, hi = (mid << j) - 1, (mid << j) + 1
                if ipoly_eval_sign(p, lo, k + j) and ipoly_eval_sign(p, hi, k + j):
                    vlo, vhi = _variations(chain, lo, k + j), _variations(chain, hi, k + j)
                    if vlo - vhi == 1:
                        break
                j += 1
            split(a << j, va, lo, vlo, k + j)
            roots.append(AlgebraicNumber(p, mid, mid, k))
            split(hi, vhi, b << j, vb, k + j)
            return
        vm = _variations(chain, mid, k)
        split(a, va, mid, vm, k)
        split(mid, vm, b, vb, k)

    # Every root is below 1 + max |p_i| / lead in absolute value (Cauchy),
    # so the ends +-2^e are non-roots.
    e = (max(abs(c) for c in p[:-1]) // p[-1] + 1).bit_length()
    split(-(1 << e), _variations(chain, -(1 << e), 0), 1 << e, _variations(chain, 1 << e, 0), 0)
    # p has a positive lead and simple roots, so it rises through its
    # largest root and alternates below.
    for i, root in enumerate(reversed(roots)):
        root.rising = i % 2 == 0
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
        return [AlgebraicNumber.rational(-b, 2 * a)]
    s = math.isqrt(disc)
    if s * s == disc:
        return [AlgebraicNumber.rational(-b - s, 2 * a), AlgebraicNumber.rational(-b + s, 2 * a)]
    # Irrational pair; the quadratic is irreducible, hence squarefree.  The
    # roots times 2^k are sqrt(disc) 2^k / a apart, and their brackets are
    # under 2 wider; 2^k > 2a + 1 keeps the two brackets apart.
    k = max(PRECISION, (2 * a + 1).bit_length())
    return [
        AlgebraicNumber(p, *surd_bracket((-b, q, disc, 2 * a), k), k, rising=q > 0)
        for q in (-1, 1)
    ]


def _apart(below: AlgebraicNumber, above: AlgebraicNumber) -> bool:
    """Does below's bracket end strictly before above's begins?"""
    if below.k >= above.k:
        return below.hi < above.lo << (below.k - above.k)
    return below.hi << (above.k - below.k) < above.lo


def sort_unique_roots(roots: list[AlgebraicNumber]) -> list[AlgebraicNumber]:
    """Sort a batch of roots from several polynomials and drop duplicates.

    The batch is sorted by the lower ends of the brackets as integers at
    one scale.  Neighbours whose brackets meet are compared with cmp, which
    bisects them apart or finds them equal; the batch is sorted again until
    no two neighbours meet.  On return consecutive brackets are strictly
    apart, so a sample fits between any two.
    """
    ordered = list(roots)
    while True:
        top = max((r.k for r in ordered), default=0)
        ordered.sort(key=lambda r: r.lo << (top - r.k))
        unique = ordered[:1]
        settled = True
        for root in ordered[1:]:
            if _apart(unique[-1], root):
                unique.append(root)
                continue
            settled = False
            if unique[-1].cmp(root) != 0:
                unique.append(root)
        ordered = unique
        if settled:
            return ordered


def _floor_shift(x: int, s: int) -> int:
    """floor(x / 2^s) for any integer s."""
    return x >> s if s >= 0 else x << -s


def dyadic_between(lo: Optional[int], hi: Optional[int], k: int) -> Dyadic:
    """The dyadic with the fewest bits strictly between lo / 2^k and hi / 2^k.

    None is unbounded, and lo < hi.  An integer is taken when one fits, the
    one nearest zero; otherwise the fewest bits after the binary point,
    which leaves one choice: of the integers lo + 1 .. hi - 1 the one
    with the most trailing zeros.  The result is (n, j), meaning n / 2^j.
    """
    least = None if lo is None else _floor_shift(lo, k) + 1
    most = None if hi is None else -_floor_shift(-hi, k) - 1
    if least is None or most is None or least <= most:
        if least is not None and least > 0:
            return least, 0
        if most is not None and most < 0:
            return most, 0
        return 0, 0
    first, last = lo + 1, hi - 1
    if first > last:
        return 2 * lo + 1, k + 1
    if first == last:
        n = first
    else:
        # Above the highest bit where first and last differ they agree; the
        # number with that bit set and nothing below it lies in the range.
        top = (first ^ last).bit_length() - 1
        n = (last >> top) << top
        if first & ((2 << top) - 1) == 0:
            n = first
    zeros = (n & -n).bit_length() - 1
    return n >> zeros, k - zeros


def sample_between(
    below: Optional[AlgebraicNumber], above: Optional[AlgebraicNumber]
) -> Dyadic:
    """The dyadic with the fewest bits strictly between two roots; None is unbounded.

    The roots' brackets must be strictly apart, as sort_unique_roots leaves
    them.
    """
    if below is None and above is None:
        return 0, 0
    if below is None:
        return dyadic_between(None, above.lo, above.k)
    if above is None:
        return dyadic_between(below.hi, None, below.k)
    k = max(below.k, above.k)
    return dyadic_between(below.hi << (k - below.k), above.lo << (k - above.k), k)


def surd_bracket(x: Surd, k: int = PRECISION) -> tuple[int, int]:
    """Integers lo <= hi with the surd x in [lo / 2^k, hi / 2^k]."""
    p, q, d, r = x
    num = p << k
    if q == 0:
        return num // r, -(-num // r)
    # sqrt(d) 2^k lies in [s, s + 1].
    s = math.isqrt(d << (2 * k))
    if q > 0:
        return (num + s) // r, -((-num - s - 1) // r)
    return (num - s - 1) // r, -((s - num) // r)


def _surd_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b sqrt(d), d >= 0."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0) if d else 0
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    t = a * a - b * b * d
    return sa if t > 0 else sb if t < 0 else 0


def surd_cmp(x: Surd, y: Surd) -> int:
    """Exact three-way comparison of two surds, in integers.

    x - y has the sign of a + b sqrt(d1) + c sqrt(d2), with both
    denominators multiplied out.  When a + b sqrt(d1) and c sqrt(d2) have
    opposite signs, the larger square decides: one squaring leaves
    (a^2 + b^2 d1 - c^2 d2) + 2ab sqrt(d1), and _surd_sign squares again.
    """
    p1, q1, d1, r1 = x
    p2, q2, d2, r2 = y
    a, b, c = p1 * r2 - p2 * r1, q1 * r2, -q2 * r1
    u = _surd_sign(a, b, d1)
    v = (c > 0) - (c < 0) if d2 else 0
    if v == 0 or u == v:
        return u
    if u == 0:
        return v
    w = _surd_sign(a * a + b * b * d1 - c * c * d2, 2 * a * b, d1)
    return u if w > 0 else v if w < 0 else 0


def surd_between(below: Optional[Surd], above: Optional[Surd]) -> Dyadic:
    """The dyadic with the fewest bits strictly between two surds, below < above.

    None is unbounded.  The brackets are taken at PRECISION bits and at
    twice as many until they are strictly apart.
    """
    k = PRECISION
    while True:
        hi = None if below is None else surd_bracket(below, k)[1]
        lo = None if above is None else surd_bracket(above, k)[0]
        if hi is None or lo is None or hi < lo:
            return dyadic_between(hi, lo, k)
        k *= 2
