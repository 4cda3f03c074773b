"""The Fraction Euclid of the root layer, kept as a reference.

These are the former blocksel.roots helpers, unchanged: the gcd, the
squarefree part and the Sturm chain divided polynomials over the
rationals.  The library now runs one integer pseudo-division for all
three; tests compare its results against these.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from blocksel.model import InvariantError
from blocksel.roots import (
    IPoly,
    _positive_scale,
    ipoly_derivative,
    ipoly_degree,
    ipoly_normalize,
    ipoly_primitive,
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
