"""Command line for the exact block-structured subset selector.

Subcommands: solve an instance file, get the brute-force reference answer,
compare the two, and generate seeded random instances.  Instances travel as
JSON documents (see load_instance for the schema); all reported indices are
1-based.  Exit codes: 0 success, 1 input error, 2 budget exceeded, 3 compare
mismatch, 4 standard output closed before everything was written.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .model import (
    BudgetExceededError,
    Instance,
    MethodRefusedError,
    Solution,
    format_rational,
    validate,
)
from .oracle import brute_force
from .solver import DEFAULT_MAX_CELLS, METHODS, solve, solve_detailed

DEFAULT_MAX_ORACLE = 10**6

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3
EXIT_PIPE = 4


# --- instance documents ------------------------------------------------------


def load_instance(text: str) -> Instance:
    """Build a validated Instance from its JSON document.

    The document is an object with "blocks" (list of matrices, each a list
    of rows of rationals), "coupling" (list of columns), optional
    "intercept" (column or null), "b" (vector), and "sigma" (integer).
    Rationals may be integers or strings like "3", "-2/7", "0.25"; decimal
    literals in the file are re-read as strings so they stay exact.  A
    number whose numerator or denominator has more digits than Python will
    print (sys.get_int_max_str_digits) is refused, since no answer built
    from it could be shown.
    """
    try:
        doc = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("top-level value must be an object")
    missing = [name for name in ("blocks", "coupling", "b", "sigma") if name not in doc]
    if missing:
        raise ValueError("missing fields: " + ", ".join(missing))
    sigma = doc["sigma"]
    if isinstance(sigma, bool) or not isinstance(sigma, int):
        raise ValueError("sigma must be an integer")
    try:
        instance = Instance.build(
            blocks=doc["blocks"],
            coupling=doc["coupling"],
            intercept=doc.get("intercept"),
            b=doc["b"],
            sigma=sigma,
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"malformed instance: {exc}") from exc
    problems = validate(instance)
    if problems:
        raise ValueError("; ".join(problems))
    _check_digits(instance)
    return instance


def _check_digits(instance: Instance) -> None:
    """Refuse numbers with more digits than int-to-text conversion allows.

    Sizes are read from bit lengths, with an exact comparison only near the
    limit, because converting such a number to text is what fails.
    """
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        return
    # 10**limit has more than limit * 3.3219 (< log2 10) bits, so a number
    # with at most that many bits has at most limit digits.
    short_bits = limit * 33219 // 10000
    values = [v for blk in instance.blocks for v in blk.entries]
    values += [v for col in instance.coupling for v in col]
    values += instance.intercept or ()
    values += instance.b
    for v in values:
        for part in (abs(v.numerator), v.denominator):
            if part.bit_length() > short_bits and part >= 10**limit:
                raise ValueError(
                    f"a number has more than {limit} digits in its numerator "
                    "or denominator"
                )


def dump_instance(instance: Instance) -> str:
    """Serialize an Instance back to its JSON document (round-trip exact)."""
    doc = {
        "blocks": [
            [[format_rational(v) for v in row] for row in blk.to_rows()]
            for blk in instance.blocks
        ],
        "coupling": [[format_rational(v) for v in col] for col in instance.coupling],
        "intercept": (
            None
            if instance.intercept is None
            else [format_rational(v) for v in instance.intercept]
        ),
        "b": [format_rational(v) for v in instance.b],
        "sigma": instance.sigma,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _budget(flag_value: Optional[int], env_name: str, default: int) -> int:
    """Flag wins over the environment override, which wins over the default.

    A negative budget is an input error, whichever way it was given.
    """
    if flag_value is not None:
        flag = "--" + env_name.removeprefix("BLOCKSEL_").lower().replace("_", "-")
        source, value = flag, flag_value
    else:
        env = os.environ.get(env_name)
        if env is None:
            return default
        try:
            source, value = env_name, int(env)
        except ValueError:
            raise ValueError(f"{env_name} must be an integer, got {env!r}") from None
    if value < 0:
        raise ValueError(f"{source} must be non-negative, got {value}")
    return value


# --- reports -----------------------------------------------------------------


def _solution_doc(
    instance: Instance, solution: Solution, report: Optional[list[dict]] = None
) -> dict:
    doc = {
        "objective": format_rational(solution.objective),
        "objective_decimal": float(solution.objective),
        "support": [i + 1 for i in sorted(solution.support)],
        "x": [format_rational(v) for v in solution.x],
        "mu": None if solution.mu is None else format_rational(solution.mu),
        "sigma": instance.sigma,
    }
    if report is not None:
        doc["subproblems"] = [
            {
                "coupling": [j + 1 for j in entry["coupling"]],
                "intercept": entry["intercept"],
                "budget": entry["budget"],
                "path": entry["path"],
                "regions": entry["regions"],
                "candidates": entry["candidates"],
                "objective": format_rational(entry["objective"]),
            }
            for entry in report
        ]
    return doc


def _solution_text(
    instance: Instance, solution: Solution, report: Optional[list[dict]] = None
) -> str:
    value = format_rational(solution.objective)
    lines = [f"objective  {value}  ({float(solution.objective):.6g})"]
    support = " ".join(str(i + 1) for i in sorted(solution.support))
    lines.append(f"support    {support if support else '(empty)'}")
    lines.append("x          " + " ".join(format_rational(v) for v in solution.x))
    if instance.k:
        lam = solution.x[instance.n_total :]
        lines.append("coupling   " + " ".join(format_rational(v) for v in lam))
    if solution.mu is not None:
        lines.append(f"mu         {format_rational(solution.mu)}")
    if report is not None:
        scored = sum(entry["candidates"] for entry in report)
        lines.append(f"subproblems {len(report)}  candidates scored {scored}")
        for entry in report:
            cols = ",".join(str(j + 1) for j in entry["coupling"])
            pinned = "+mu" if entry["intercept"] else ""
            lines.append(
                "  coupling=[{}]{} budget={} path={} regions={} candidates={} objective={}".format(
                    cols,
                    pinned,
                    entry["budget"],
                    entry["path"],
                    entry["regions"],
                    entry["candidates"],
                    format_rational(entry["objective"]),
                )
            )
    return "\n".join(lines)


def _unprintable(exc: Exception) -> int:
    print(f"error: result too large to print: {exc}", file=sys.stderr)
    return EXIT_INPUT


def _print_solution(
    instance: Instance,
    solution: Solution,
    report: Optional[list[dict]],
    as_json: bool,
) -> int:
    """Print the whole report, or exit 1 when a number in it cannot be shown.

    Rendering fails when an exact value has more digits than int-to-text
    conversion allows (ValueError) or its decimal passes the float range
    (OverflowError); nothing is printed then.
    """
    try:
        if as_json:
            text = json.dumps(_solution_doc(instance, solution, report), indent=2)
        else:
            text = _solution_text(instance, solution, report)
    except (ValueError, OverflowError) as exc:
        return _unprintable(exc)
    print(text)
    return EXIT_OK


# --- commands ----------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        max_cells = _budget(args.max_cells, "BLOCKSEL_MAX_CELLS", DEFAULT_MAX_CELLS)
        instance = load_instance(_read_source(args.path))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        solution, report = solve_detailed(
            instance, max_cells=max_cells, method=args.method
        )
    except MethodRefusedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return _print_solution(instance, solution, report, args.json)


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        max_supports = _budget(args.max_oracle, "BLOCKSEL_MAX_ORACLE", DEFAULT_MAX_ORACLE)
        instance = load_instance(_read_source(args.path))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        solution = brute_force(instance, max_supports=max_supports)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return _print_solution(instance, solution, None, args.json)


def cmd_compare(args: argparse.Namespace) -> int:
    """Brute force first, then the solver, so a solver refusal still reports."""
    try:
        max_cells = _budget(args.max_cells, "BLOCKSEL_MAX_CELLS", DEFAULT_MAX_CELLS)
        max_supports = _budget(args.max_oracle, "BLOCKSEL_MAX_ORACLE", DEFAULT_MAX_ORACLE)
        instance = load_instance(_read_source(args.path))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        reference = brute_force(instance, max_supports=max_supports)
    except BudgetExceededError as exc:
        print(f"oracle budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    try:
        print(f"oracle  {format_rational(reference.objective)}", flush=True)
    except ValueError as exc:
        return _unprintable(exc)
    try:
        solution = solve(instance, max_cells=max_cells)
    except BudgetExceededError as exc:
        print(f"solver budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    try:
        print(f"solver  {format_rational(solution.objective)}")
    except ValueError as exc:
        return _unprintable(exc)
    if solution.objective == reference.objective:
        print("PASS")
        return EXIT_OK
    print("MISMATCH")
    return EXIT_MISMATCH


def generate_instance(
    blocks: int,
    block_rows: int,
    block_cols: int,
    coupling: int,
    intercept: bool,
    sigma: Optional[int],
    seed: int,
    spread: int,
) -> Instance:
    """Seeded random instance; identical arguments give an identical result.

    Block sizes are uniform on 1..block_rows by 1..block_cols and every
    entry is a ratio p/q with p in [-spread, spread] and q in [1, spread].
    The intercept column, when requested, is all ones.  A missing sigma is
    drawn uniformly from 0..d.
    """
    rng = random.Random(seed)

    def entry() -> Fraction:
        return Fraction(rng.randint(-spread, spread), rng.randint(1, spread))

    sizes = [
        (rng.randint(1, block_rows), rng.randint(1, block_cols))
        for _ in range(blocks)
    ]
    mats = [[[entry() for _ in range(n)] for _ in range(m)] for m, n in sizes]
    m_total = sum(m for m, _ in sizes)
    cols = [[entry() for _ in range(m_total)] for _ in range(coupling)]
    ones = [1] * m_total if intercept else None
    rhs = [entry() for _ in range(m_total)]
    d = sum(n for _, n in sizes) + coupling
    chosen = rng.randint(0, d) if sigma is None else sigma
    return Instance.build(
        blocks=mats, coupling=cols, intercept=ones, b=rhs, sigma=chosen
    )


def cmd_gen(args: argparse.Namespace) -> int:
    if args.blocks < 1 or args.block_rows < 1 or args.block_cols < 1:
        print(
            "error: --blocks, --block-rows, --block-cols must be at least 1",
            file=sys.stderr,
        )
        return EXIT_INPUT
    if args.coupling < 0:
        print("error: --coupling must be non-negative", file=sys.stderr)
        return EXIT_INPUT
    if args.spread < 1:
        print("error: --range must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    instance = generate_instance(
        blocks=args.blocks,
        block_rows=args.block_rows,
        block_cols=args.block_cols,
        coupling=args.coupling,
        intercept=args.intercept,
        sigma=args.sigma,
        seed=args.seed,
        spread=args.spread,
    )
    problems = validate(instance)
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return EXIT_INPUT
    text = dump_instance(instance)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksel",
        description=(
            "Exact cardinality-constrained least squares on block-diagonal "
            "matrices with coupling columns."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cells_help = (
        "support and chain region budget of the extended path "
        f"(default {DEFAULT_MAX_CELLS}, env BLOCKSEL_MAX_CELLS)"
    )
    oracle_help = f"support enumeration budget (default {DEFAULT_MAX_ORACLE}, env BLOCKSEL_MAX_ORACLE)"

    ps = sub.add_parser("solve", help="solve an instance exactly")
    ps.add_argument("path", help="instance file, or - for stdin")
    ps.add_argument("--json", action="store_true", help="machine-readable report")
    ps.add_argument(
        "--method",
        choices=METHODS,
        default="auto",
        help="force one candidate generator (default auto); diagonal is the 1x1 route",
    )
    ps.add_argument("--max-cells", type=int, default=None, help=cells_help)
    ps.set_defaults(func=cmd_solve)

    po = sub.add_parser("oracle", help="brute-force reference answer")
    po.add_argument("path", help="instance file, or - for stdin")
    po.add_argument("--json", action="store_true", help="machine-readable report")
    po.add_argument("--max-oracle", type=int, default=None, help=oracle_help)
    po.set_defaults(func=cmd_oracle)

    pc = sub.add_parser("compare", help="check solver against brute force")
    pc.add_argument("path", help="instance file, or - for stdin")
    pc.add_argument("--max-cells", type=int, default=None, help=cells_help)
    pc.add_argument("--max-oracle", type=int, default=None, help=oracle_help)
    pc.set_defaults(func=cmd_compare)

    pg = sub.add_parser("gen", help="generate a seeded random instance")
    pg.add_argument("--blocks", type=int, default=3, help="number of diagonal blocks")
    pg.add_argument("--block-rows", type=int, default=2, help="max rows per block")
    pg.add_argument("--block-cols", type=int, default=2, help="max columns per block")
    pg.add_argument("--coupling", type=int, default=0, help="number of coupling columns")
    pg.add_argument(
        "--intercept", action="store_true", help="add an all-ones intercept column"
    )
    pg.add_argument(
        "--sigma", type=int, default=None, help="cardinality budget (default: random in 0..d)"
    )
    pg.add_argument("--seed", type=int, default=0, help="generator seed")
    pg.add_argument(
        "--range",
        dest="spread",
        type=int,
        default=5,
        metavar="R",
        help="entries are p/q with |p| and q at most R",
    )
    pg.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    pg.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; standard output closed early exits with EXIT_PIPE.

    The flush inside the guard surfaces a pipe closed before the last
    write; pointing standard output at os.devnull keeps the exit quiet.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed early", file=sys.stderr)
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
