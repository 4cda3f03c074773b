"""Problem data types for block-structured subset selection.

An instance is a least squares system ``min |M x + c mu - b|^2`` subject to a
cardinality bound on the support of x, where M consists of a block-diagonal
part (one matrix per block) followed by k dense coupling columns, and c is an
optional intercept column.  Everything is exact: entries are
``fractions.Fraction`` and no float ever enters a computation.

Indices are 0-based throughout the library; the CLI renders them 1-based.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]


class BudgetExceededError(Exception):
    """Raised when an enumeration would pass its configured budget.

    The message names the offending construction (arrangement, oracle
    enumeration, or the subproblem being solved) so callers can report it.
    """


class InvariantError(RuntimeError):
    """Raised when an internal consistency check of the solver fails.

    It signals a defect in the program, never bad input.  Unlike an assert
    it still fires under python -O.
    """


def parse_rational(value: RationalLike) -> Fraction:
    """Parse a rational from an int, a Fraction, or a string.

    Strings may be integer literals ("-3"), fractions ("5/7"), or decimal
    literals ("0.25", "1e-3"), all read exactly.  A decimal literal whose
    exponent alone passes the digit limit raises ValueError before the
    number is built (see _check_exponent), and so do booleans and a zero
    denominator.  An error message quotes at most the first 40 characters
    of the value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not text:
            raise ValueError("empty rational literal")
        if "e" in text or "E" in text:
            _check_exponent(text)
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text[:40]!r}") from None
        except ValueError as exc:
            # Fraction's message for a malformed literal repeats all of it.
            if str(exc).startswith("Invalid literal"):
                raise ValueError(f"invalid rational literal {text[:40]!r}") from None
            raise
    raise ValueError(f"cannot parse rational from {repr(value)[:40]}")


def _check_exponent(text: str) -> None:
    """Refuse a decimal literal whose exponent alone passes the digit limit.

    Fraction expands the exponent into a power of ten before any size can
    be read, so "1e1000000000" would take minutes and gigabytes.  Past the
    int-to-text limit (sys.get_int_max_str_digits) plus the mantissa's
    digit count, the numerator or denominator has more digits than the
    limit; a zero mantissa is refused as well.  A limit of 0 turns this off.
    """
    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = text.lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "")
    if limit and digits.isdecimal():
        bound = limit + sum(ch.isdecimal() for ch in mantissa)
        if len(digits) > limit or int(digits) > bound:
            raise ValueError(
                f"decimal literal {text[:40]!r} gives a number with more "
                f"than {limit} digits"
            )


def format_rational(value: Fraction) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _entries(value, what: str):
    """value itself, refused when it is a string or a JSON object (a dict).

    Both iterate, so a string "12" would otherwise read as the vector [1, 2].
    """
    if isinstance(value, (str, bytes, dict)):
        raise ValueError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _freeze_vector(entries: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(parse_rational(e) for e in _entries(entries, "a vector"))


def offsets(sizes: Iterable[int]) -> tuple[int, ...]:
    """Where each block starts, given the blocks' sizes, and the total last."""
    return tuple(itertools.accumulate(sizes, initial=0))


@dataclass(frozen=True)
class RatMatrix:
    """Dense exact-rational matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "RatMatrix":
        if not _entries(rows, "a matrix"):
            raise ValueError("matrix needs at least one row")
        ncols = len(_entries(rows[0], "a matrix row"))
        flat: list[Fraction] = []
        for row in rows:
            if len(_entries(row, "a matrix row")) != ncols:
                raise ValueError("ragged rows in matrix")
            flat.extend(parse_rational(e) for e in row)
        return cls(len(rows), ncols, tuple(flat))

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    def at(self, r: int, c: int) -> Fraction:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[Fraction, ...]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def column(self, c: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[r * self.cols + c] for r in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(r)) for r in range(self.rows)]


@dataclass(frozen=True)
class BlockStructure:
    """Shape summary of the block-diagonal part.

    theta is the widest block; theta_bar = (theta-1)*theta*(theta+1)/2 is the
    proximity radius that bounds the chain's exchange steps (solver.aug_set).
    """

    h: int
    n_vec: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.h != len(self.n_vec):
            raise ValueError("h must equal len(n_vec)")
        if any(n <= 0 for n in self.n_vec):
            raise ValueError("block widths must be positive")

    @property
    def theta(self) -> int:
        return max(self.n_vec)

    @property
    def theta_bar(self) -> int:
        t = self.theta
        return (t - 1) * t * (t + 1) // 2

    @property
    def n_total(self) -> int:
        return sum(self.n_vec)


@dataclass(frozen=True)
class Instance:
    """A full subset-selection instance.

    blocks: the block-diagonal part, one RatMatrix per block.
    coupling: k dense columns, each of length sum(m_i).
    intercept: optional extra column whose coefficient mu is never counted
        against the cardinality budget.
    b: right-hand side, length sum(m_i).
    sigma: cardinality budget on the x-part plus coupling coefficients.
    """

    blocks: tuple[RatMatrix, ...]
    coupling: tuple[tuple[Fraction, ...], ...]
    intercept: Optional[tuple[Fraction, ...]]
    b: tuple[Fraction, ...]
    sigma: int

    @classmethod
    def build(
        cls,
        blocks: Sequence[Sequence[Sequence[RationalLike]]],
        coupling: Sequence[Sequence[RationalLike]] = (),
        intercept: Optional[Sequence[RationalLike]] = None,
        b: Sequence[RationalLike] = (),
        sigma: int = 0,
    ) -> "Instance":
        return cls(
            blocks=tuple(RatMatrix.from_rows(rows) for rows in blocks),
            coupling=tuple(_freeze_vector(col) for col in coupling),
            intercept=_freeze_vector(intercept) if intercept is not None else None,
            b=_freeze_vector(b),
            sigma=sigma,
        )

    @property
    def h(self) -> int:
        return len(self.blocks)

    @property
    def m_total(self) -> int:
        return sum(blk.rows for blk in self.blocks)

    @property
    def n_total(self) -> int:
        return sum(blk.cols for blk in self.blocks)

    @property
    def k(self) -> int:
        return len(self.coupling)

    @property
    def d(self) -> int:
        """Number of selectable variables: block columns plus coupling columns."""
        return self.n_total + self.k

    def structure(self) -> BlockStructure:
        return BlockStructure(self.h, tuple(blk.cols for blk in self.blocks))

    def row_offsets(self) -> tuple[int, ...]:
        return offsets(blk.rows for blk in self.blocks)

    def col_offsets(self) -> tuple[int, ...]:
        return offsets(blk.cols for blk in self.blocks)


@dataclass(frozen=True)
class ReducedProblem:
    """One separable subproblem produced by the coupling reduction.

    lambda_cols are the columns whose coefficients become free parameters
    (intercept first when present, then the chosen coupling columns).  tags
    records where each came from: the string "mu" or a 0-based coupling index,
    no two alike.  sigma_p is the residual cardinality budget for the block
    variables.  forms, set by the solver's reduce(), is the residual form
    table that the subproblems of one instance share.
    """

    blocks: tuple[RatMatrix, ...]
    b: tuple[Fraction, ...]
    lambda_cols: tuple[tuple[Fraction, ...], ...]
    tags: tuple[Union[str, int], ...]
    sigma_p: int
    forms: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not len(self.lambda_cols) == len(self.tags) == len(set(self.tags)):
            raise ValueError("one distinct tag per lambda column")
        if self.sigma_p < 0:
            raise ValueError("sigma_p must be non-negative")

    @property
    def k_prime(self) -> int:
        return len(self.lambda_cols)

    @property
    def n_total(self) -> int:
        return sum(blk.cols for blk in self.blocks)

    def structure(self) -> BlockStructure:
        return BlockStructure(len(self.blocks), tuple(blk.cols for blk in self.blocks))


@dataclass(frozen=True)
class Solution:
    """A feasible point: x over the d selectable variables, optional mu."""

    x: tuple[Fraction, ...]
    mu: Optional[Fraction]
    objective: Fraction
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        actual = tuple(sorted(i for i, v in enumerate(self.x) if v != 0))
        if set(actual) - set(self.support):
            raise ValueError("support does not cover the nonzero coordinates")


def residual_norm2(instance: Instance, x: Sequence[Fraction], mu: Optional[Fraction]) -> Fraction:
    """Exact squared residual |M x + c mu - b|^2 for a full-length x.

    It reads only the instance, x and mu, in integers: x and mu share one
    denominator dx, the instance's entries another, dm, so each residual
    entry times dm dx is an integer, and one Fraction is built at the end.
    """
    if len(x) != instance.d:
        raise ValueError("x must have length d")
    if (mu is None) != (instance.intercept is None):
        raise ValueError("mu must be present exactly when the intercept is")
    dx = math.lcm(*(v.denominator for v in x), 1 if mu is None else mu.denominator)
    ix = [v.numerator * (dx // v.denominator) for v in x]
    imu = 0 if mu is None else mu.numerator * (dx // mu.denominator)
    n = instance.n_total
    # Only the columns with a nonzero coefficient reach the residual.
    coupling = [(col, ix[n + j]) for j, col in enumerate(instance.coupling) if ix[n + j]]
    intercept = instance.intercept if imu else ()
    dm = math.lcm(
        *(v.denominator for v in instance.b),
        *(v.denominator for blk in instance.blocks for v in blk.entries),
        *(v.denominator for col, _ in coupling for v in col),
        *(v.denominator for v in intercept),
    )

    def whole(v: Fraction) -> int:
        return v.numerator * (dm // v.denominator)

    total = 0
    row_offsets = instance.row_offsets()
    col_offsets = instance.col_offsets()
    for bi, blk in enumerate(instance.blocks):
        r0 = row_offsets[bi]
        cols = [(c, ix[col_offsets[bi] + c]) for c in range(blk.cols) if ix[col_offsets[bi] + c]]
        for r in range(blk.rows):
            acc = -whole(instance.b[r0 + r]) * dx
            for c, xv in cols:
                acc += whole(blk.at(r, c)) * xv
            for col, xv in coupling:
                acc += whole(col[r0 + r]) * xv
            if imu:
                acc += whole(intercept[r0 + r]) * imu
            total += acc * acc
    return Fraction(total, (dm * dx) ** 2)


def make_solution(
    instance: Instance,
    x: Sequence[Fraction],
    mu: Optional[Fraction],
    support: Iterable[int],
) -> Solution:
    """Build a Solution, recomputing the objective from the fields."""
    obj = residual_norm2(instance, x, mu)
    return Solution(tuple(x), mu, obj, tuple(sorted(set(support))))


def validate(instance: Instance) -> list[str]:
    """Collect structural violations; an empty list means the instance is well formed."""
    problems: list[str] = []
    if not instance.blocks:
        problems.append("instance has no blocks")
        return problems
    m = instance.m_total
    if len(instance.b) != m:
        problems.append(f"b has length {len(instance.b)}, expected {m}")
    for j, col in enumerate(instance.coupling):
        if len(col) != m:
            problems.append(f"coupling column {j} has length {len(col)}, expected {m}")
    if instance.intercept is not None and len(instance.intercept) != m:
        problems.append(f"intercept has length {len(instance.intercept)}, expected {m}")
    if instance.sigma < 0:
        problems.append("sigma is negative")
    if instance.sigma > instance.d:
        problems.append(f"sigma {instance.sigma} exceeds the variable count {instance.d}")
    return problems

