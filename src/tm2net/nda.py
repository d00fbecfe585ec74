"""Piecewise affine-linear dynamics on the unit square.

The square is cut into a rectangular grid: one x-interval per (state,
left-symbol) pair and one y-interval per head symbol, so every cell
collects exactly the encoded configurations sharing a shift window.  Each
cell carries the affine map that reproduces, on Godel values, the rewrite
and marker move the shift performs on that window.  Iterating the selected
map therefore commutes exactly with stepping the machine.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm
from typing import Mapping

from .encode import Point, rat_str
from .gshift import Triple
from .machine import Run, TuringMachine

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
    return _cell(x.numerator, x.denominator, y.numerator, y.denominator,
                 (p.n_x_cells, p.n_y_cells))


def _cell(nx: int, dx: int, ny: int, dy: int, shape, closed: bool = False):
    """The grid cell of the point (nx/dx, ny/dy), d > 0: an integer floor per
    axis.  The network's cells are closed at 1 (``closed``); a point outside
    raises CellRangeError."""
    n_x, n_y = shape
    if not (0 <= nx < dx + closed and 0 <= ny < dy + closed):
        where = "[0, 1]^2" if closed else "[0, 1) x [0, 1)"
        raise CellRangeError(f"point ({Fraction(nx, dx)}, {Fraction(ny, dy)}) outside {where}")
    return min(nx * n_x // dx, n_x - 1), min(ny * n_y // dy, n_y - 1)


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


def _free(d: int, ns: int) -> int:
    """``d`` without the prime factors it shares with ``ns``."""
    return d // gcd(d, ns ** d.bit_length())


def _scaled(p: int, d: int, c: int, ns: int) -> tuple[int, int] | None:
    """(N, k) with p/d = N/(c*ns**k) and k minimal, in O(log k) big-int
    operations; None when d divides no c*ns**k."""
    k = d.bit_length()  # enough: ns**k holds every power of ns's primes in d
    scale, r = divmod(c * ns ** k, d)
    n, powers = p * scale, [ns]
    if r or not n:
        return None if r else (0, 0)
    while 1 << len(powers) <= k:  # ns**(2**i): drop trailing zeros 2**i at a time
        powers.append(powers[-1] ** 2)
    for i in reversed(range(len(powers))):
        if k >> i and not n % powers[i]:
            n, k = n // powers[i], k - (1 << i)
    return n, k


class Kernel:
    """One branch table's exact step on scaled integers.

    A state (N_x, k_x, N_y, k_y) is the point (N_x/(c_x*ns**k_x),
    N_y/(c_y*ns**k_y)); c_x and c_y are the parts of n_q and of the offsets'
    denominators (and of a start point's: ``fit``) free of ns's primes.  k is
    minimal, so equal points are equal states.  A branch (ns**e,
    alpha/(c*ns**j)), six integers (e, alpha, j) per cell in ``table``, maps
    N/(c*ns**k) to (N*ns**(K-k+e) + alpha*ns**(K-j))/(c*ns**K) with
    K = max(k - e, j): per axis a product with a cached power and a sum.
    """

    def __init__(self, n_q: int, n_s: int, cells):
        """``cells`` yields (i*n_s + j, ((lambda_x, a_x), (lambda_y, a_y)))."""
        self.ns, self.shape, self.powers = n_s, (n_q * n_s, n_s), [1]
        exponent = {Fraction(1, n_s): -1, 1: 0, n_s: 1}
        c, table = [_free(n_q, n_s), 1], [0, 0, 1] * (2 * n_q * n_s * n_s)
        for u, params in cells:
            for v, (lam, a) in zip((6 * u, 6 * u + 3), params):
                if lam not in exponent:
                    raise ValueError(f"cell {divmod(u, n_s)}: lambda {lam} is not 1/n_s, 1 or n_s")
                c[v % 6 // 3] = lcm(c[v % 6 // 3], _free(a.denominator, n_s))
                table[v:v + 3] = exponent[lam], a.numerator, a.denominator
        for v in range(0, len(table), 3):  # slot v is on axis v % 6 // 3
            table[v + 1:v + 3] = _scaled(table[v + 1], table[v + 2], c[v % 6 // 3], n_s)
        self.c, self.table = tuple(c), table

    def _powers(self, k: int) -> list[int]:
        """The cached powers of ns, at least up to ns**k."""
        while len(self.powers) <= k:
            self.powers.append(self.powers[-1] * self.ns)
        return self.powers

    def ratios(self, s: tuple) -> tuple[tuple[int, int], tuple[int, int]]:
        """The state's coordinates as integer ratios (N, c*ns**k)."""
        pw = self._powers(s[1] if s[1] > s[3] else s[3])
        return (s[0], self.c[0] * pw[s[1]]), (s[2], self.c[1] * pw[s[3]])

    def step(self, s: tuple, net: bool = False) -> tuple[tuple[int, int], tuple]:
        """(cell, next state) of ``s``.  The network's cells (``net``) are
        closed at 1, and its ramp clips a coordinate at 0."""
        (nx, dx), (ny, dy) = self.ratios(s)
        i, j = cell = _cell(nx, dx, ny, dy, self.shape, net)
        v = 6 * (i * self.ns + j)
        ex, ax, jx, ey, ay, jy = self.table[v:v + 6]
        return cell, self._axis(s[0], s[1], ex, ax, jx, net) + self._axis(s[2], s[3], ey, ay, jy, net)

    def _axis(self, n: int, k: int, e: int, a: int, j: int, clip: bool) -> tuple[int, int]:
        k -= e
        top = k if k > j else j
        pw = self._powers(top + 1)  # top - k <= top + 1
        n = (n * pw[top - k] if top > k else n) + a * pw[top - j]
        if n < 0 and clip or not n:
            return 0, 0
        while top and not n % self.ns:  # no trailing zero digit
            n, top = n // self.ns, top - 1
        return n, top

    def fit(self, pt: Point) -> tuple[Kernel, tuple]:
        """This kernel and ``pt``'s state in it, or the same of a copy whose c
        is widened by the primes of ``pt``'s denominators it lacks."""
        xy = [_scaled(v.numerator, v.denominator, c, self.ns) for v, c in zip(pt, self.c)]
        if None not in xy:
            return self, xy[0] + xy[1]
        wide = copy.copy(self)
        wide.c = tuple(lcm(c, _free(v.denominator, self.ns)) for c, v in zip(self.c, pt))
        wide.table = [a * wide.c[v % 6 // 3] // self.c[v % 6 // 3] if v % 3 == 1 else a
                      for v, a in enumerate(self.table)]
        return wide.fit(pt)

    def point(self, s: tuple) -> Point:
        return Point(*(Fraction(n, d) for n, d in self.ratios(s)))

    def equals(self, s: tuple, pt: Point) -> bool:
        """Whether ``s`` is ``pt`` without a gcd: N/D is the reduced p/d
        exactly when D = q*d and N = q*p."""
        for (n, d), v in zip(self.ratios(s), pt):
            q, r = divmod(d, v.denominator)
            if r or n != q * v.numerator:
                return False
        return True

    def key(self, s: tuple) -> tuple:
        """The state's point in integers free of c: per axis N and c over
        their gcd, and k."""
        gx, gy = gcd(s[0], self.c[0]), gcd(s[2], self.c[1])
        return s[0] // gx, self.c[0] // gx, s[1], s[2] // gy, self.c[1] // gy, s[3]


@dataclass(frozen=True)
class Nda:
    """The full switched system: partition plus one branch per cell."""

    machine: TuringMachine
    partition: Partition
    branches: Mapping[tuple[int, int], Branch]

    @cached_property
    def kernel(self) -> Kernel:
        """The branch table on scaled integers, built on first use."""
        ns = self.machine.n_symbols
        return Kernel(self.machine.n_states, ns, (
            (i * ns + j, ((b.lambda_x, b.a_x), (b.lambda_y, b.a_y)))
            for (i, j), b in self.branches.items()))


def build_nda(m: TuringMachine) -> Nda:
    p = build_partition(m)
    branches = {}
    for i in range(p.n_x_cells):
        for j in range(p.n_y_cells):
            branches[(i, j)] = derive_branch(m, p.triple_of_cell(i, j))
    return Nda(m, p, branches)


def nda_step(nda: Nda, pt: Point) -> Point:
    """Apply the branch selected by the switching rule, exactly."""
    kernel, s = nda.kernel.fit(pt)
    return kernel.point(kernel.step(s)[1])


@dataclass(frozen=True)
class NdaTrace:
    points: tuple[Point, ...]
    halted: bool

    @property
    def steps(self) -> int:
        return len(self.points) - 1


def nda_successor(nda: Nda, s: tuple, kernel: Kernel | None = None) -> tuple | None:
    """The state of ``kernel`` (the nda's own by default) after ``s``, or
    None in a halt cell (whose branch has no action)."""
    cell, nxt = (kernel or nda.kernel).step(s)
    return None if nda.branches[cell].action is None else nxt


def run_nda(nda: Nda, pt0: Point, max_steps: int) -> NdaTrace:
    """Iterate the flow; stops when the current cell belongs to a halt state."""
    kernel, s0 = nda.kernel.fit(pt0)
    run = Run(partial(nda_successor, nda, kernel=kernel), s0, max_steps)
    return NdaTrace(tuple(map(kernel.point, run)), run.halted)


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
