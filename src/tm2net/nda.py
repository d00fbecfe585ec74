"""Piecewise affine-linear dynamics on the unit square.

The square is cut into a rectangular grid: one x-interval per (state,
left-symbol) pair and one y-interval per head symbol, so every cell
collects exactly the encoded configurations sharing a shift window.  Each
cell carries the affine map that reproduces, on Godel values, the rewrite
and marker move the shift performs on that window.  Iterating the selected
map therefore commutes exactly with stepping the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping

from .encode import Point, rat_str
from .gshift import Triple
from .machine import TuringMachine, iterate

CELL_ORDER_NOTE = (
    "x cells ordered by (state index, left-symbol index), "
    "y cells by head-symbol index, all 0-based"
)


class CellRangeError(ValueError):
    """A point outside [0, 1) x [0, 1) has no cell."""


@dataclass(frozen=True)
class Partition:
    """Rectangular grid with exact rational cell boundaries."""

    machine: TuringMachine
    x_bounds: tuple[Fraction, ...]  # len n_x_cells + 1, from 0 to 1
    y_bounds: tuple[Fraction, ...]  # len n_y_cells + 1

    @property
    def n_x_cells(self) -> int:
        return len(self.x_bounds) - 1

    @property
    def n_y_cells(self) -> int:
        return len(self.y_bounds) - 1

    def cell_of_triple(self, t: Triple) -> tuple[int, int]:
        m = self.machine
        i = m.state_index(t.state) * m.n_symbols + m.symbol_index(t.left)
        j = m.symbol_index(t.read)
        return i, j

    def triple_of_cell(self, i: int, j: int) -> Triple:
        m = self.machine
        return Triple(
            left=m.tape_symbols[i % m.n_symbols],
            state=m.states[i // m.n_symbols],
            read=m.tape_symbols[j],
        )


def grid_bounds(n_q: int, n_s: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Uniform grid lines: x width 1/(n_q*n_s), y width 1/n_s, from 0 to 1."""
    nx, ny = n_q * n_s, n_s
    return (tuple(Fraction(i, nx) for i in range(nx + 1)),
            tuple(Fraction(j, ny) for j in range(ny + 1)))


def build_partition(m: TuringMachine) -> Partition:
    return Partition(m, *grid_bounds(m.n_states, m.n_symbols))


def cell_of_point(p: Partition, pt: Point) -> tuple[int, int]:
    """Switching rule: the unique cell with half-open membership."""
    x, y = pt
    if not (0 <= x < 1 and 0 <= y < 1):
        raise CellRangeError(f"point ({x}, {y}) outside [0, 1) x [0, 1)")
    return int(x * p.n_x_cells), int(y * p.n_y_cells)


@dataclass(frozen=True)
class Branch:
    """Affine map of one cell: (x, y) -> (a_x + lambda_x*x, a_y + lambda_y*y).

    ``triple`` is the window the cell stands for, ``action`` the transition
    it realizes (None for halt cells, which carry the identity).
    """

    a_x: Fraction
    a_y: Fraction
    lambda_x: Fraction
    lambda_y: Fraction
    triple: Triple
    action: tuple[str, str, str] | None

    def apply(self, pt: Point) -> Point:
        return Point(self.a_x + self.lambda_x * pt.x, self.a_y + self.lambda_y * pt.y)

    @property
    def is_identity(self) -> bool:
        return (self.a_x, self.a_y, self.lambda_x, self.lambda_y) == (0, 0, 1, 1)


def derive_branch(m: TuringMachine, triple: Triple) -> Branch:
    """Closed-form branch parameters for one window.

    Composing the elementary Godel-value maps (drop/prepend a digit,
    substitute a digit) along the rewrite of the window gives, for a
    right move writing ``b`` and entering ``p``:

        x' = x/ns + gq(p)/nq + gs(b)/(nq*ns) - gq(q)/(nq*ns)
        y' = ns*y - gs(Z)

    and for a left move (X the symbol left of the state):

        x' = ns*x + gq(p)/nq - ns*gq(q)/nq - gs(X)/nq
        y' = y/ns + gs(X)/ns + gs(b)/ns**2 - gs(Z)/ns**2

    with gq, gs the enumerations and nq, ns the alphabet sizes.  Halt
    windows get the identity.
    """
    X, q, Z = triple
    nq, ns = m.n_states, m.n_symbols
    gq, gs = m.state_index, m.symbol_index
    if q in m.halt_states:
        return Branch(Fraction(0), Fraction(0), Fraction(1), Fraction(1),
                      triple, None)
    q2, b, move = m.delta[(q, Z)]
    if move == "R":
        lam_x = Fraction(1, ns)
        a_x = Fraction(gq(q2), nq) + Fraction(gs(b), nq * ns) - Fraction(gq(q), nq * ns)
        lam_y = Fraction(ns)
        a_y = Fraction(-gs(Z))
    else:
        lam_x = Fraction(ns)
        a_x = Fraction(gq(q2), nq) - Fraction(ns * gq(q), nq) - Fraction(gs(X), nq)
        lam_y = Fraction(1, ns)
        a_y = Fraction(gs(X), ns) + Fraction(gs(b), ns ** 2) - Fraction(gs(Z), ns ** 2)
    return Branch(a_x, a_y, lam_x, lam_y, triple, (q2, b, move))


@dataclass(frozen=True)
class Nda:
    """The full switched system: partition plus one branch per cell."""

    machine: TuringMachine
    partition: Partition
    branches: Mapping[tuple[int, int], Branch]


def build_nda(m: TuringMachine) -> Nda:
    p = build_partition(m)
    branches = {}
    for i in range(p.n_x_cells):
        for j in range(p.n_y_cells):
            branches[(i, j)] = derive_branch(m, p.triple_of_cell(i, j))
    return Nda(m, p, branches)


def nda_step(nda: Nda, pt: Point) -> Point:
    """Apply the branch selected by the switching rule, exactly."""
    return nda.branches[cell_of_point(nda.partition, pt)].apply(pt)


@dataclass(frozen=True)
class NdaTrace:
    points: tuple[Point, ...]
    halted: bool

    @property
    def steps(self) -> int:
        return len(self.points) - 1


def nda_successor(nda: Nda, pt: Point) -> Point | None:
    """The branch of the point's cell applied, or None in a halt cell (whose
    branch has no action)."""
    br = nda.branches[cell_of_point(nda.partition, pt)]
    return None if br.action is None else br.apply(pt)


def run_nda(nda: Nda, pt0: Point, max_steps: int) -> NdaTrace:
    """Iterate the flow; stops when the current cell belongs to a halt state."""
    return NdaTrace(*iterate(partial(nda_successor, nda), pt0, max_steps))


def nda_to_json(nda: Nda) -> dict:
    """JSON document: partition bounds and per-cell branch parameters."""
    p = nda.partition
    cells = []
    for (i, j), br in sorted(nda.branches.items()):
        action = None
        if br.action is not None:
            q2, b, move = br.action
            action = {"state": q2, "write": b, "move": move}
        cells.append({
            "i": i,
            "j": j,
            "triple": {"left": br.triple.left, "state": br.triple.state,
                       "read": br.triple.read},
            "action": action,
            "a_x": rat_str(br.a_x),
            "a_y": rat_str(br.a_y),
            "lambda_x": rat_str(br.lambda_x),
            "lambda_y": rat_str(br.lambda_y),
        })
    return {
        "cell_order": CELL_ORDER_NOTE,
        "n_q": nda.machine.n_states,
        "n_s": nda.machine.n_symbols,
        "x_bounds": [rat_str(v) for v in p.x_bounds],
        "y_bounds": [rat_str(v) for v in p.y_bounds],
        "cells": cells,
    }


def orbit_rows(nda: Nda, points) -> list[dict]:
    """CSV rows for a trajectory, rationals as num/den strings."""
    rows = []
    for t, pt in enumerate(points):
        i, j = cell_of_point(nda.partition, pt)
        rows.append({"step": t, "x": rat_str(pt.x), "y": rat_str(pt.y),
                     "cell_i": i, "cell_j": j})
    return rows
