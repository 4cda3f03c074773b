"""Seeded instance documents for each benchmark workload.

Block shapes are fixed per workload and only the entries are drawn, so a
seed changes the numbers but not the structure the solver sees.  Every
entry is p/q with 1 <= |p| <= spread and 1 <= q <= spread, written as a
string so the documents stay exact.  Nonzero entries and, where the
workload allows, a wide spread keep instances generic: few ties between
supports, so the work per solve depends little on the seed.  The program
under test receives only these JSON documents; nothing here imports it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Doc:
    """One solve: an instance document."""

    text: str
    group: int  # documents sharing a group differ only in sigma


def _entry(rng: random.Random, spread: int) -> str:
    p = rng.randint(1, spread) * rng.choice((-1, 1))
    return f"{p}/{rng.randint(1, spread)}"


def _instance(
    rng: random.Random,
    shapes: list[tuple[int, int]],
    coupling: int,
    intercept: bool,
    spread: int,
) -> dict:
    m = sum(rows for rows, _ in shapes)
    return {
        "blocks": [
            [[_entry(rng, spread) for _ in range(cols)] for _ in range(rows)]
            for rows, cols in shapes
        ],
        "coupling": [[_entry(rng, spread) for _ in range(m)] for _ in range(coupling)],
        "intercept": ["1"] * m if intercept else None,
        "b": [_entry(rng, spread) for _ in range(m)],
    }


def _doc(group: int, body: dict, sigma: int) -> Doc:
    return Doc(json.dumps({**body, "sigma": sigma}, sort_keys=True), group)


# Sizes are interleaved so that each size is timed early, middle and late in
# a pass, and a slow spell of the machine does not land on one size only.
# Each workload holds many distinct documents and few passes: the sum over
# many seeded documents varies little from seed to seed, and the host's
# noise averages out over the solve time whichever way it is split.


def cover_blocks(rng: random.Random) -> list[Doc]:
    """Full 2x2 blocks, intercept plus one coupling column, sigma 3.

    The subproblems have k' = 1 (intercept alone) and k' = 2 (intercept and
    the coupling column), so both cover backends run and the candidate pool
    dominates.  Six documents at h = 6 and one each at h = 7 and 8 fill
    about one pass; with h = 6 the bulk, the median solve is an h = 6 one.
    h = 10 is left out: every seed is refused by the profile union budget
    there.
    """
    docs = []
    for g, h in enumerate((6, 6, 7, 6, 8, 6, 6, 6)):
        body = _instance(rng, [(2, 2)] * h, coupling=1, intercept=True, spread=9)
        docs.append(_doc(g, body, 3))
    return docs


def diag_k2(rng: random.Random) -> list[Doc]:
    """1x1 blocks, two coupling columns, no intercept, sigma 4.

    The subproblem with both coupling columns pinned has k' = 2 on the
    diagonal path, where the line cover dominates.  Seven documents at
    h = 10, two at h = 11 and one at h = 12 fill about one pass; the median
    solve is an h = 10 one.
    """
    docs = []
    for g, h in enumerate((10, 11, 10, 10, 12, 10, 10, 11, 10, 10)):
        body = _instance(rng, [(1, 1)] * h, coupling=2, intercept=False, spread=5)
        docs.append(_doc(g, body, 4))
    return docs


def lifted_k3(rng: random.Random) -> list[Doc]:
    """Tall 2x1 blocks, intercept plus two coupling columns, sigma 3.

    The subproblem with both coupling columns pinned has k' = 3, which auto
    sends down the lifted LP path.  Thirty h = 4 documents and two at h = 3
    fill about one pass.  h = 5 is left out: one solve takes 6 to 9 s
    depending on the seed, so the two or three that fit in a run would
    decide its total.  h = 6 takes minutes per solve.
    """
    docs = []
    for g, h in enumerate((3,) + (4,) * 15 + (3,) + (4,) * 15):
        body = _instance(rng, [(2, 1)] * h, coupling=2, intercept=True, spread=9)
        docs.append(_doc(g, body, 3))
    return docs


SWEEP_SHAPES = (
    ((1, 1), (2, 2), (1, 2)),
    ((2, 1), (1, 1), (2, 2), (1, 1)),
    ((1, 2), (2, 1), (1, 1), (2, 2), (1, 1)),
    ((1, 1), (2, 1), (1, 1), (1, 2), (2, 1), (1, 1)),
)


def sigma_sweep(rng: random.Random) -> list[Doc]:
    """96 small instances, each solved at every sigma from 0 to d in order.

    Shapes, coupling count and intercept cycle through all 16 combinations
    of SWEEP_SHAPES, 0 or 1 coupling columns and intercept or not.
    Consecutive documents of one group share all data but sigma, so the
    solver's cross-solve reuse pays off here and nowhere else.
    """
    docs = []
    for g in range(96):
        shapes = list(SWEEP_SHAPES[g % 4])
        coupling = g // 4 % 2
        body = _instance(rng, shapes, coupling, intercept=g // 8 % 2 == 0, spread=3)
        d = sum(cols for _, cols in shapes) + coupling
        for sigma in range(d + 1):
            docs.append(_doc(g, body, sigma))
    return docs


WORKLOADS = {
    "cover-blocks": cover_blocks,
    "diag-k2": diag_k2,
    "lifted-k3": lifted_k3,
    "sigma-sweep": sigma_sweep,
}


# Per-solve wall cap, several times the slowest solve seen at any seed.
CAP_S = {
    "cover-blocks": 30.0,
    "diag-k2": 20.0,
    "lifted-k3": 10.0,
    "sigma-sweep": 10.0,
}


def generate(workload: str, seed: int) -> list[Doc]:
    """The documents of one workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
