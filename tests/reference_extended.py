"""The extended path as it was before the chain tree, kept as a reference.

These are the former library helpers, unchanged apart from their names
and the dedup key, which was the method QuadraticForm.coefficients_key:
each support cell was refined by the pairwise comparison hyperplanes of the
whole symbolic exchange set D (the symbolic mode of build_d), cell by cell
through enumerate_cells restricted to the support cell, and the incremental
chain ran at every refined witness.  Tests compare the solver's extended
candidates against extended_candidates.

The support cells come from SupportTable, build_support_tables,
_support_planes and _argmins_extended, the library's support step before
it split by argmin regions: every same-cardinality comparison hyperplane is
inserted by reference_arrangement.enumerate_cells, and each cell reads its
winners at its witness.  _support_planes no longer caches its planes on the
solver's context.  _difference_forms is the former solver helper, which
the cover path used before it read differences of integer rows.  The
residual forms and their lookup come from reference_forms._support_forms,
since the solver's context holds only integer rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import reference_arrangement
from blocksel.linalg import extended_dim
from blocksel.model import BlockStructure, BudgetExceededError, ReducedProblem
from blocksel.solver import CandidateSet, _context
from reference_arrangement import (
    Cell,
    Hyperplane,
    LinearFunctional,
    form_add,
    form_is_zero,
    form_sub,
    linearize,
    merge_hyperplanes,
    predicted_cell_bound,
    sign_at,
    strict_sign_witness,
)
from reference_forms import QuadraticForm, _support_forms
from reference_separable import ValTable, _enumerate_patterns, chain_solve


@dataclass(frozen=True)
class SupportTable:
    """Winning support per (block, cardinality) slot inside one cell."""

    selections: tuple[tuple[tuple[int, ...], ...], ...]


def _argmins_extended(forms, point: Sequence[Fraction]) -> tuple:
    """Winning support per (block, cardinality) at an extended-space point."""
    table = []
    for rows in forms:
        per_size = tuple(
            min(row, key=lambda sf: (linearize(sf[1]).eval(point), sf[0]))[0]
            for row in rows
        )
        table.append(per_size)
    return tuple(table)


def _difference_forms(forms) -> list[QuadraticForm]:
    """Nonzero residual differences of same-cardinality supports per block."""
    out = []
    for rows in forms:
        for row in rows:
            for (_, f1), (_, f2) in itertools.combinations(row, 2):
                diff = form_sub(f1, f2)
                if not form_is_zero(diff):
                    out.append(diff)
    return out


def _support_planes(base: ReducedProblem) -> tuple[Hyperplane, ...]:
    """Hyperplanes of the same-cardinality comparisons in extended space."""
    ctx = _context(base)
    # A difference with no variable part keeps one sign: no surface to cross.
    funcs = map(linearize, _difference_forms(_support_forms(base, ctx.pieces)))
    return tuple(merge_hyperplanes([f for f in funcs if any(f.coeffs)]))


def build_support_tables(
    rp: ReducedProblem, max_cells: int = 200000
) -> tuple[list[Cell], list[SupportTable]]:
    """Cells of the lifted comparison arrangement with their argmin tables.

    The comparison surfaces are quadratic in lambda but linear over the
    extended coordinates (lambda, then pairwise products), so cells come
    from exact hyperplane enumeration there.  Within a cell every
    comparison keeps one sign, fixing a winning support per
    (block, cardinality) slot.
    """
    base = _context(rp).base
    planes = _support_planes(base)
    cells = reference_arrangement.enumerate_cells(
        planes, extended_dim(rp.k_prime), max_cells=max_cells
    )
    forms = _support_forms(base, _context(base).pieces)
    tables = [SupportTable(_argmins_extended(forms, cell.witness)) for cell in cells]
    return cells, tables


@dataclass(frozen=True)
class DeltaForm:
    """One exchange step with its cost difference as a quadratic form.

    changes lists (block, j_from, j_to) for every block that moves, sorted by
    block index; q is the total decrease.
    """

    changes: tuple[tuple[int, int, int], ...]
    q: int
    form: Optional[QuadraticForm] = None


def _coefficients_key(form: QuadraticForm) -> tuple:
    """Canonical coefficient tuple, usable as an exact dedup key."""
    upper = tuple(form.p[i][j] for i in range(form.dim) for j in range(i, form.dim))
    return (form.dim, upper, form.r, form.s0)


def build_d_symbolic(
    structure: BlockStructure,
    forms: Sequence[Sequence[QuadraticForm]],
) -> list[DeltaForm]:
    """The exchange set D in symbolic mode; forms[i][j] values block i, size j.

    Entries dedup by the canonical coefficient key of their form, which is
    what the downstream hyperplane construction needs.
    """
    patterns = _enumerate_patterns(structure)
    out: list[DeltaForm] = []
    seen: set = set()
    for changes in patterns:
        q = sum(f - t for _, f, t in changes if t < f)
        form: Optional[QuadraticForm] = None
        for i, f, t in changes:
            step = form_sub(forms[i][t], forms[i][f])
            form = step if form is None else form_add(form, step)
        assert form is not None
        key = _coefficients_key(form)
        if key in seen:
            continue
        seen.add(key)
        out.append(DeltaForm(changes, q, form=form))
    return out


def enumerate_cells(
    hyperplanes: Sequence[Hyperplane],
    dim: int,
    max_cells: int = 200000,
    base: Sequence[tuple[LinearFunctional, int]] = (),
    base_witness: Optional[Sequence[Fraction]] = None,
) -> list[Cell]:
    """All full-dimensional cells of the arrangement, each with a witness.

    base constrains the enumeration to an ambient open polyhedron (used when
    refining a cell by further hyperplanes); base signs are strict and are
    not part of the output sign vectors.  Raises BudgetExceededError when
    the predicted cell count passes max_cells.
    """
    bound = predicted_cell_bound(len(hyperplanes), dim)
    if bound > max_cells:
        raise BudgetExceededError(
            f"arrangement of {len(hyperplanes)} hyperplanes in dimension {dim} "
            f"may have {bound} cells, over the budget of {max_cells}"
        )
    base_normals = [list(f.coeffs) for f, _ in base]
    base_offsets = [f.const for f, _ in base]
    base_signs = [s for _, s in base]
    start = tuple(base_witness) if base_witness is not None else tuple([Fraction(0)] * dim)
    cells: list[tuple[list[int], tuple[Fraction, ...]]] = [([], start)]

    for idx, plane in enumerate(hyperplanes):
        normals = base_normals + [list(h.functional.coeffs) for h in hyperplanes[: idx + 1]]
        offsets = base_offsets + [h.functional.const for h in hyperplanes[: idx + 1]]
        next_cells: list[tuple[list[int], tuple[Fraction, ...]]] = []
        for signs, witness in cells:
            here = sign_at(plane.functional, witness)
            targets = [here] if here != 0 else [1, -1]
            settled = False
            for target in targets:
                if target == here:
                    next_cells.append((signs + [target], witness))
                    settled = True
                    continue
                candidate = strict_sign_witness(
                    normals, offsets, base_signs + signs + [target]
                )
                if candidate is not None:
                    next_cells.append((signs + [target], tuple(candidate)))
                    settled = True
            if here != 0:
                # Try the far side of the new hyperplane.
                candidate = strict_sign_witness(
                    normals, offsets, base_signs + signs + [-here]
                )
                if candidate is not None:
                    next_cells.append((signs + [-here], tuple(candidate)))
            if not settled:
                # Witness sat on the plane and neither side is feasible;
                # impossible for a nonzero functional over an open region.
                raise AssertionError("cell lost during hyperplane insertion")
        cells = next_cells
        if len(cells) > max_cells:
            raise BudgetExceededError(
                f"cell count {len(cells)} exceeded the budget of {max_cells}"
            )

    # Re-witness cells whose inherited witness sits on a later hyperplane:
    # the loop above only guarantees strictness against inserted planes at
    # insertion time; a stale witness can be on a plane inserted afterwards.
    result = []
    all_normals = base_normals + [list(h.functional.coeffs) for h in hyperplanes]
    all_offsets = base_offsets + [h.functional.const for h in hyperplanes]
    for signs, witness in cells:
        strict = all(
            sign_at(h.functional, witness) == s for h, s in zip(hyperplanes, signs)
        )
        if not strict:
            candidate = strict_sign_witness(all_normals, all_offsets, base_signs + signs)
            if candidate is None:
                raise AssertionError("recorded cell has empty interior")
            witness = tuple(candidate)
        result.append(Cell(signs=tuple(signs), witness=witness))
    return result


def extended_candidates(
    rp: ReducedProblem, max_cells: int
) -> tuple[CandidateSet, int]:
    """Candidates and refined-cell count from the extended-space arrangement.

    Per cell, the winning supports induce symbolic cardinality values; the
    exchange set over those values is refined by its pairwise comparison
    hyperplanes, and each refined cell contributes the support realized by
    the incremental chain at the evaluated witness.
    """
    ctx = _context(rp)
    planes = _support_planes(ctx.base)
    cells, tables = build_support_tables(rp, max_cells=max_cells)
    regions = 0
    lookup = [
        {sup: form for slot in per_size for sup, form in slot}
        for per_size in _support_forms(ctx.base, ctx.pieces)
    ]
    offsets = ctx.offsets
    structure = rp.structure()
    level = min(rp.sigma_p, rp.n_total)
    candidates: CandidateSet = set()
    for cell, table in zip(cells, tables):
        sel_forms = [
            [lookup[i][sup] for sup in table.selections[i]]
            for i in range(len(rp.blocks))
        ]
        exchanges = build_d_symbolic(structure, forms=sel_forms)
        sources: list[LinearFunctional] = []
        for e1, e2 in itertools.combinations(exchanges, 2):
            assert e1.form is not None and e2.form is not None
            diff = form_sub(e1.form, e2.form)
            if form_is_zero(diff):
                continue
            func = linearize(diff)
            if all(c == 0 for c in func.coeffs):
                continue
            sources.append(func)
        refine = merge_hyperplanes(sources)
        constraints = [
            (hp.functional, sign) for hp, sign in zip(planes, cell.signs)
        ]
        refined = enumerate_cells(
            refine,
            extended_dim(rp.k_prime),
            max_cells=max_cells,
            base=constraints,
            base_witness=cell.witness,
        )
        regions += len(refined)
        for sub in refined:
            pseudo = ValTable(
                tuple(
                    tuple(linearize(f).eval(sub.witness) for f in row)
                    for row in sel_forms
                )
            )
            alloc, _ = chain_solve(pseudo, level)
            chi: list[int] = []
            for i, j in enumerate(alloc):
                chi.extend(offsets[i] + c for c in table.selections[i][j])
            candidates.add(tuple(sorted(chi)))
    return candidates, regions
