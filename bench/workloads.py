"""The benchmark's workloads: a machine file, a seeded input word, a step budget.

Every workload halts or is cut by its budget, never by a detected loop, so
its verdict stays fixed if loop detection is added to the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent  # the checkout being measured
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # everything the benchmark writes
MACHINES = Path(__file__).resolve().parent / "machines"

FLIP_LENGTH = 600


@dataclass(frozen=True)
class Workload:
    name: str
    machine: Path
    budget: int  # --max-steps of every operation, float64 runs included
    word: Callable[[int], str]  # seed -> input word
    why: str


def _flip_word(seed: int) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice("01") for _ in range(FLIP_LENGTH))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="flip-long",
            machine=ROOT / "fixtures" / "flip.tm",
            budget=FLIP_LENGTH + 100,
            word=_flip_word,
            why="tiny 48-unit network, tape span grows every step: wide "
                "Godel values, per-config re-encoding in the CLI and compare",
        ),
        Workload(
            name="counter-wide",
            machine=MACHINES / "counter_wide.tm",
            budget=500,
            word=lambda seed: "00",
            why="853-unit, 5598-edge network on a span of at most 4 cells: "
                "LTL fan-in dominates net_step, setup is largest",
        ),
        Workload(
            name="bb5-prefix",
            machine=MACHINES / "bb5.tm",
            budget=3000,
            word=lambda seed: "",
            why="BB(5) champion, fixed 3000-step prefix on 65 units: per-step "
                "fixed cost and whole-history trace storage dominate",
        ),
    )
}
