"""Command line for the exact block-structured subset selector.

Subcommands: solve an instance file, get the brute-force reference answer,
compare the two, and generate seeded random instances.  Instances travel as
JSON documents (see load_instance for the schema); all reported indices are
1-based.  Exit codes: 0 success, 1 input or usage error, 2 budget exceeded,
3 compare mismatch, 4 standard output closed before everything was
written.
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
    Solution,
    format_rational,
    validate,
)
from .oracle import brute_force
from .solver import solve, solve_detailed

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


def _load(path: str) -> Optional[Instance]:
    """The instance document at path (- for stdin), or None after one error line."""
    try:
        if path == "-":
            return load_instance(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return load_instance(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


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


def _solution_text(instance: Instance, doc: dict) -> str:
    """The plain-text report of a _solution_doc document."""
    lines = [f"objective  {doc['objective']}  ({doc['objective_decimal']:.6g})"]
    support = " ".join(map(str, doc["support"]))
    lines.append(f"support    {support if support else '(empty)'}")
    lines.append("x          " + " ".join(doc["x"]))
    if instance.k:
        lines.append("coupling   " + " ".join(doc["x"][instance.n_total :]))
    if doc["mu"] is not None:
        lines.append(f"mu         {doc['mu']}")
    if "subproblems" in doc:
        subs = doc["subproblems"]
        scored = sum(entry["candidates"] for entry in subs)
        lines.append(f"subproblems {len(subs)}  candidates scored {scored}")
        for entry in subs:
            cols = ",".join(map(str, entry["coupling"]))
            pinned = "+mu" if entry["intercept"] else ""
            lines.append(
                f"  coupling=[{cols}]{pinned} budget={entry['budget']} "
                f"path={entry['path']} regions={entry['regions']} "
                f"candidates={entry['candidates']} objective={entry['objective']}"
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
        doc = _solution_doc(instance, solution, report)
        text = json.dumps(doc, indent=2) if as_json else _solution_text(instance, doc)
    except (ValueError, OverflowError) as exc:
        return _unprintable(exc)
    print(text)
    return EXIT_OK


# --- commands ----------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    """solve and oracle: args.run gives the solution and its report, or None."""
    instance = _load(args.path)
    if instance is None:
        return EXIT_INPUT
    try:
        solution, report = args.run(instance)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return _print_solution(instance, solution, report, args.json)


def cmd_compare(args: argparse.Namespace) -> int:
    """Brute force first, then the solver, so a solver refusal still reports."""
    instance = _load(args.path)
    if instance is None:
        return EXIT_INPUT
    objectives = []
    for name, run in (("oracle", brute_force), ("solver", solve)):
        try:
            objectives.append(run(instance).objective)
        except BudgetExceededError as exc:
            print(f"{name} budget exceeded: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        try:
            print(f"{name}  {format_rational(objectives[-1])}", flush=True)
        except ValueError as exc:
            return _unprintable(exc)
    if objectives[0] == objectives[1]:
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
        return EXIT_OK
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


# --- entry point -------------------------------------------------------------


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            bound = "non-negative" if low == 0 else f"at least {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksel",
        description=(
            "Exact cardinality-constrained least squares on block-diagonal "
            "matrices with coupling columns."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, run in (
        ("solve", "solve an instance exactly", solve_detailed),
        ("oracle", "brute-force reference answer", lambda inst: (brute_force(inst), None)),
    ):
        ps = sub.add_parser(name, help=text)
        ps.add_argument("path", help="instance file, or - for stdin")
        ps.add_argument("--json", action="store_true", help="machine-readable report")
        ps.set_defaults(func=cmd_solve, run=run)

    pc = sub.add_parser("compare", help="check solver against brute force")
    pc.add_argument("path", help="instance file, or - for stdin")
    pc.set_defaults(func=cmd_compare)

    pg = sub.add_parser("gen", help="generate a seeded random instance")
    positive = _at_least(1)
    pg.add_argument("--blocks", type=positive, default=3, help="number of diagonal blocks")
    pg.add_argument("--block-rows", type=positive, default=2, help="max rows per block")
    pg.add_argument("--block-cols", type=positive, default=2, help="max columns per block")
    pg.add_argument(
        "--coupling", type=_at_least(0), default=0, help="number of coupling columns"
    )
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
        type=positive,
        default=5,
        metavar="R",
        help="entries are p/q with |p| and q at most R",
    )
    pg.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    pg.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; standard output closed early exits with EXIT_PIPE.

    argparse prints a usage error and exits with 2, which here means a
    budget was exceeded, so a usage error exits with EXIT_INPUT instead;
    --help still exits 0.  The flush inside the guard surfaces a pipe
    closed before the last write; pointing standard output at os.devnull
    keeps the exit quiet.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
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
