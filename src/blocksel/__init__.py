"""Exact subset selection on block-diagonal least squares with coupling columns.

The entry points most callers want: build an Instance, call solve (or
solve_detailed for per-subproblem statistics), and cross-check with
brute_force.  Everything is exact rational arithmetic end to end.
"""

from .model import (
    BlockStructure,
    BudgetExceededError,
    Instance,
    InvariantError,
    RatMatrix,
    ReducedProblem,
    Solution,
    format_rational,
    make_solution,
    parse_rational,
    residual_norm2,
    validate,
)
from .oracle import brute_force, brute_force_levels
from .solver import (
    aug_set,
    reduce,
    solve,
    solve_block,
    solve_detailed,
)

__all__ = [
    "BlockStructure",
    "BudgetExceededError",
    "Instance",
    "InvariantError",
    "RatMatrix",
    "ReducedProblem",
    "Solution",
    "aug_set",
    "brute_force",
    "brute_force_levels",
    "format_rational",
    "make_solution",
    "parse_rational",
    "reduce",
    "residual_norm2",
    "solve",
    "solve_block",
    "solve_detailed",
    "validate",
]
