"""The Fraction residual of blocksel.model, kept as a reference.

residual_norm2 is the former library function, unchanged: it sums the
squared residual entries in Fractions.  The library now scales the
instance, x and mu to integers and builds one Fraction at the end; tests
compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from blocksel.model import Instance


def residual_norm2(instance: Instance, x: Sequence[Fraction], mu: Optional[Fraction]) -> Fraction:
    """Exact squared residual |M x + c mu - b|^2 for a full-length x."""
    if len(x) != instance.d:
        raise ValueError("x must have length d")
    if (mu is None) != (instance.intercept is None):
        raise ValueError("mu must be present exactly when the intercept is")
    total = Fraction(0)
    row_offsets = instance.row_offsets()
    col_offsets = instance.col_offsets()
    n = instance.n_total
    for bi, blk in enumerate(instance.blocks):
        r0 = row_offsets[bi]
        c0 = col_offsets[bi]
        for r in range(blk.rows):
            acc = -instance.b[r0 + r]
            for c in range(blk.cols):
                xv = x[c0 + c]
                if xv:
                    acc += blk.at(r, c) * xv
            for j, col in enumerate(instance.coupling):
                xv = x[n + j]
                if xv:
                    acc += col[r0 + r] * xv
            if instance.intercept is not None and mu is not None and mu != 0:
                acc += instance.intercept[r0 + r] * mu
            total += acc * acc
    return total
