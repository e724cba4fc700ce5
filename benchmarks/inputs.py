"""Benchmark inputs: the fixed configurations and the seeded pair draw.

The seed selects only the drawn shell pairs.  Everything else about a
workload is fixed here, so two seeds give pair lists of the same size from
the same shells.

Cost varies several-fold between pairs of one shell, and it tracks the
pair's total cycle length (word steps) closely.  A draw over the whole shell
would make the workload's time depend on the seed more than on the code, so
each shell pair is drawn from the middle third of the shell ranked by the
word steps recorded in reference.json: about 30 candidates per shell.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

Pair = tuple[int, int]

SWEEP_JOBS = 2  # grid-sweep worker processes in the untraced run
PROBES = 2  # verify_atlas(probes_per_interval=...), as `rotatlas partition` uses


@dataclass(frozen=True)
class Config:
    """One size of the benchmark: `full` is measured, `smoke` is for tests."""

    name: str
    grid_m: int  # grid-sweep: rotatlas sweep --max-m grid_m
    fixed_pairs: tuple[Pair, ...]  # reverify-artifacts, always run
    shells: tuple[int, ...]  # one seeded pair is drawn from each shell


# The fixed pairs are the hardest ones named in ROADMAP's baseline; the
# drawn shells sit just below them, so a seed varies the mix without
# letting one pair dominate.
FULL = Config(
    name="full",
    grid_m=7,
    fixed_pairs=((-9, -10), (-10, -10), (10, 10), (-14, -15)),
    shells=(11, 12, 13, 14),
)
SMOKE = Config(
    name="smoke",
    grid_m=2,
    fixed_pairs=((-3, -4),),
    shells=(3,),
)
CONFIGS = {c.name: c for c in (FULL, SMOKE)}


def shell_pairs(m: int) -> list[Pair]:
    """All pairs with max(|a0|, |a1|) == m, in lexicographic order."""
    return [
        (a0, a1)
        for a0 in range(-m, m + 1)
        for a1 in range(-m, m + 1)
        if max(abs(a0), abs(a1)) == m
    ]


def draw_candidates(m: int, reference: dict) -> list[Pair]:
    """The middle third of shell m, ranked by recorded word steps."""
    ranked = sorted(shell_pairs(m), key=lambda p: (reference["pairs"][pair_key(p)]["word_steps"], p))
    third = len(ranked) // 3
    return ranked[third : len(ranked) - third]


def workload_pairs(config: Config, reference: dict, seed: int) -> list[Pair]:
    """The resolved pair list of reverify-artifacts: fixed, then one drawn per shell."""
    rng = random.Random(seed)
    drawn = [rng.choice(draw_candidates(m, reference)) for m in config.shells]
    return list(config.fixed_pairs) + drawn


def pair_key(pair: Pair) -> str:
    return f"{pair[0]},{pair[1]}"


def use_checkout_source() -> None:
    """Import rotatlas from this checkout's src/, and from nowhere else.

    Exits with code 2 when the checkout has no source tree, so the
    benchmark never measures an installed copy by accident.
    """
    if not os.path.isfile(os.path.join(SRC, "rotatlas", "__init__.py")):
        print(f"benchmark: no rotatlas source under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
