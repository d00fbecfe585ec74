"""Piecewise affine-linear dynamics on the unit square.

The square is cut into a rectangular grid: one x-interval per (state,
left-symbol) pair and one y-interval per head symbol, so every cell
collects exactly the encoded configurations sharing a shift window.  Each
cell carries the affine map that reproduces, on Godel values, the rewrite
and marker move the shift performs on that window.  Iterating the selected
map therefore commutes exactly with stepping the machine.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from math import gcd, lcm

from .encode import Point, _affine, _free, _powers, _scaled, rat_str
from .gshift import Triple
from .machine import Run, Trace, TuringMachine, _Rows

CELL_ORDER_NOTE = (
    "x cells ordered by (state index, left-symbol index), "
    "y cells by head-symbol index, all 0-based"
)


class CellRangeError(ValueError):
    """A point outside [0, 1) x [0, 1) has no cell."""


@dataclass(frozen=True)
class Partition:
    """Rectangular grid with exact rational cell boundaries, built on first read."""

    machine: TuringMachine

    @property
    def n_x_cells(self) -> int:
        return self.machine.n_states * self.machine.n_symbols

    @property
    def n_y_cells(self) -> int:
        return self.machine.n_symbols

    @cached_property
    def x_bounds(self) -> tuple[Fraction, ...]:  # len n_x_cells + 1, from 0 to 1
        return grid_bounds(self.machine.n_states, self.machine.n_symbols)[0]

    @cached_property
    def y_bounds(self) -> tuple[Fraction, ...]:  # len n_y_cells + 1
        return grid_bounds(self.machine.n_states, self.machine.n_symbols)[1]

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
    return Partition(m)


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


def transition_form(m: TuringMachine, q: str, z: str) -> tuple:
    """The branches of the windows (X, q, Z), every X, in closed form.

    Composing the elementary Godel-value maps (drop/prepend a digit,
    substitute a digit) along the rewrite of the window gives, for a
    right move writing ``b`` and entering ``p``:

        x' = x/ns + (ns*gq(p) + gs(b) - gq(q))/(nq*ns)
        y' = ns*y - gs(Z)

    and for a left move (X the symbol left of the state):

        x' = ns*x + (gq(p) - ns*gq(q) - gs(X))/nq
        y' = y/ns + (ns*gs(X) + gs(b) - gs(Z))/ns**2

    with gq, gs the enumerations and nq, ns the alphabet sizes.  Halt
    windows get the identity.  Returns ((e, a0, a1, t) for x, the same for
    y, the action): lambda = ns**e, and a = (a0 + a1*gs(X))/(nq*ns**t) on x
    and (a0 + a1*gs(X))/ns**t on y.
    """
    ns, gq, gs = m.n_symbols, m.state_index, m.symbol_index
    if q in m.halt_states:
        return (0, 0, 0, 0), (0, 0, 0, 0), None
    q2, b, move = action = m.delta[(q, z)]
    if move == "R":
        return (-1, ns * gq(q2) + gs(b) - gq(q), 0, 1), (1, -gs(z), 0, 0), action
    return (1, gq(q2) - ns * gq(q), -1, 0), (-1, gs(b) - gs(z), ns, 2), action


def derive_branch(m: TuringMachine, triple: Triple) -> Branch:
    """The branch of one window: ``transition_form`` at its X, in Fractions."""
    X, q, Z = triple
    (ex, x0, x1, tx), (ey, y0, y1, ty), action = transition_form(m, q, Z)
    x, ns = m.symbol_index(X), m.n_symbols
    return Branch(Fraction(x0 + x1 * x, m.n_states * ns ** tx), Fraction(y0 + y1 * x, ns ** ty),
                  Fraction(ns) ** ex, Fraction(ns) ** ey, triple, action)


def _machine_row(forms: list, ns: int, u: int) -> tuple:
    """The row of cell ``u`` = (q*ns + X)*ns + Z, from its transition's
    record at X: per axis (e, a0 + a1*X, t) without trailing zero digits."""
    i, z = divmod(u, ns)
    q, x = divmod(i, ns)
    row = ()
    for e, a0, a1, k in forms[q * ns + z]:
        n = a0 + a1 * x
        while k and not n % ns:
            n, k = n // ns, k - 1
        row += e, n, k
    return row


def _widened(table, rx: int, ry: int, u: int) -> tuple:
    """Row ``u`` of ``table`` with c multiplied by (rx, ry), which are free of
    ns's primes, so j stays minimal."""
    ex, ax, jx, ey, ay, jy = table[u]
    return ex, ax * rx, jx, ey, ay * ry, jy


class BranchTable(Sequence):
    """The branch table nda and net share, and its exact step on scaled integers.

    A sequence like the tuple of its entries: entry u = i*n_s + j, cell
    (i, j)'s ((lambda_x, a_x), (lambda_y, a_y)), is read off the integer row
    ``rows[u]``, derived by ``row(u)`` on its first read: (e, alpha, j) per
    axis for lambda = n_s**e and a = alpha/(c*n_s**j).  ``pairs`` maps each
    lambda pair (num_x, den_x, num_y, den_y) to its first cell and largest
    a_x and a_y; ``peak`` is max(a + lambda) over every cell and axis.

    A state (N_x, k_x, N_y, k_y) is the point (N_x/(c_x*n_s**k_x),
    N_y/(c_y*n_s**k_y)); c_x and c_y are the parts of n_q and of the offsets'
    denominators (and of a start point's: ``fit``) free of n_s's primes.  k
    is minimal, so equal points are equal states.  A row maps N/(c*n_s**k)
    to (N*n_s**(K-k+e) + alpha*n_s**(K-j))/(c*n_s**K) with K = max(k - e, j):
    per axis a product with a cached power and a sum, then the trailing zero
    digits stripped to keep k minimal: ``encode._affine``, the one step rule.
    """

    def __init__(self, n_q: int, n_s: int, c: tuple[int, int], row, pairs: dict, peak: Fraction):
        self.n_q, self.n_s, self.c, self.row, self.pairs, self.peak = n_q, n_s, c, row, pairs, peak
        self.rows, self.shape, self.powers = _Rows(row), (n_q * n_s, n_s), [1]
        self.u, self.e = _scaled(1, n_q, c[0], n_s)  # 1/n_q = u/(c_x*n_s**e)

    @classmethod
    def of_machine(cls, m: TuringMachine) -> BranchTable:
        """``m``'s table from one record per transition for ``_machine_row``:
        ``transition_form`` with c = (f, 1), the x offsets over f*ns**(t+e)
        (1/n_q = u/(f*ns**e)).  a is linear in the window's X, so its largest
        value is at X = 0 or n_s - 1; all are compared over f*ns**(2+e)."""
        nq, ns = m.n_states, m.n_symbols
        f = _free(nq, ns)
        u, e = _scaled(1, nq, f, ns)
        forms, tops, k = [], {}, 2 + e
        for q in m.states:
            for z in m.tape_symbols:
                (ex, x0, x1, tx), (ey, y0, y1, ty), _ = transition_form(m, q, z)
                x0, x1, i = x0 * u, x1 * u, len(forms)  # its first cell: (q*ns + 0)*ns + z
                bx = (x0 + x1 * (ns - 1) if x1 > 0 else x0) * ns ** (k - e - tx)
                by = (y0 + y1 * (ns - 1) if y1 > 0 else y0) * ns ** (k - ty) * f
                top = tops.setdefault((ex, ey), [i // ns * ns * ns + i % ns, bx, by])
                top[1:] = max(top[1], bx), max(top[2], by)
                forms.append(((ex, x0, x1, tx + e), (ey, y0, y1, ty)))
        lam, den = {-1: (1, ns), 0: (1, 1), 1: (ns, 1)}, f * ns ** k
        peak = max(max(ax + f * ns ** (k + ex), ay + f * ns ** (k + ey))
                   for (ex, ey), (_, ax, ay) in tops.items())
        return cls(nq, ns, (f, 1), partial(_machine_row, forms, ns),
                   {lam[ex] + lam[ey]: (first, Fraction(ax, den), Fraction(ay, den))
                    for (ex, ey), (first, ax, ay) in tops.items()}, Fraction(peak, den))

    @classmethod
    def of_params(cls, n_q: int, n_s: int, params) -> BranchTable:
        """The table of explicit entries, ``params[i*n_s + j]`` of cell
        (i, j), in one pass over them.  Raises ValueError at the first cell
        whose lambda pair is not the construction's (1/n_s, n_s), (n_s,
        1/n_s) or (1, 1): a right move, a left move or a halt."""
        params, c, tops = tuple(params), (_free(n_q, n_s), 1), {}
        construction = {(1, n_s, n_s, 1), (n_s, 1, 1, n_s), (1, 1, 1, 1)}
        for u, ((lx, ax), (ly, ay)) in enumerate(params):
            c = lcm(c[0], _free(ax.denominator, n_s)), lcm(c[1], _free(ay.denominator, n_s))
            pair = lx.numerator, lx.denominator, ly.numerator, ly.denominator
            if pair not in construction:
                text = f"cell {divmod(u, n_s)}: lambda pair ({lx}, {ly})"
                raise ValueError(f"{text} breaks 0 < lambda and a + lambda <= h/2"
                                 if min(lx, ly) <= 0
                                 else f"{text} is not (1/n_s, n_s), (n_s, 1/n_s) or (1, 1)")
            top = tops.setdefault(pair, [u, ax, ay])
            top[1:] = max(top[1], ax), max(top[2], ay)
        exponent = {Fraction(n_s) ** e: e for e in (-1, 0, 1)}

        def row(u: int) -> tuple:
            (lx, ax), (ly, ay) = params[u]
            return (exponent[lx], *_scaled(ax.numerator, ax.denominator, c[0], n_s),
                    exponent[ly], *_scaled(ay.numerator, ay.denominator, c[1], n_s))

        return cls(n_q, n_s, c, row, tops, max(max(ax + Fraction(nx, dx), ay + Fraction(ny, dy))
                                               for (nx, dx, ny, dy), (_, ax, ay) in tops.items()))

    @cached_property
    def lambdas(self) -> dict:
        return {e: Fraction(self.n_s) ** e for e in (-1, 0, 1)}

    def ratios(self, s: tuple) -> tuple[tuple[int, int], tuple[int, int]]:
        """The state's coordinates as integer ratios (N, c*ns**k)."""
        pw = _powers(self.powers, self.n_s, s[1] if s[1] > s[3] else s[3])
        return (s[0], self.c[0] * pw[s[1]]), (s[2], self.c[1] * pw[s[3]])

    def step(self, s: tuple, net: bool = False) -> tuple[tuple[int, int], tuple]:
        """(cell, next state) of ``s``.  The network's cells (``net``) are
        closed at 1, and its ramp clips a coordinate at 0."""
        (nx, dx), (ny, dy) = self.ratios(s)
        i, j = cell = _cell(nx, dx, ny, dy, self.shape, net)
        ex, ax, jx, ey, ay, jy = self.rows[i * self.n_s + j]
        x = _affine(s[0], s[1], ex, ax, jx, self.n_s, self.powers)
        y = _affine(s[2], s[3], ey, ay, jy, self.n_s, self.powers)
        if net:  # the ramp: a negative coordinate is 0
            x, y = (x if x[0] >= 0 else (0, 0)), (y if y[0] >= 0 else (0, 0))
        return cell, x + y

    def fit(self, pt: Point) -> tuple[BranchTable, tuple]:
        """This table and ``pt``'s state in it, or the same of a table whose
        c is widened by the primes of ``pt``'s denominators it lacks, its
        rows this one's rescaled, its ``pairs`` and ``peak`` this one's."""
        xy = [_scaled(v.numerator, v.denominator, c, self.n_s) for v, c in zip(pt, self.c)]
        if None not in xy:
            return self, xy[0] + xy[1]
        c = tuple(lcm(c, _free(v.denominator, self.n_s)) for c, v in zip(self.c, pt))
        row = partial(_widened, self.rows, c[0] // self.c[0], c[1] // self.c[1])
        return BranchTable(self.n_q, self.n_s, c, row, self.pairs, self.peak).fit(pt)

    def point(self, s: tuple) -> Point:
        return Point(*(Fraction(n, d) for n, d in self.ratios(s)))

    def of_digits(self, r: tuple) -> tuple:
        """The state of ``r``, a point in ``encode.config_digits``'s form, no
        gcd: 1/n_q = u/(c_x*ns**e), so x = (q + X/ns**k_x)/n_q is
        (q*ns**k_x + X)*u/(c_x*ns**(k_x + e))."""
        q, x, kx, y, ky = r
        ns, pw = self.n_s, self.powers
        n = (q * _powers(pw, ns, kx)[kx] + x) * self.u
        return _affine(n, kx + self.e, 0, 0, 0, ns, pw) + (y * self.c[1], ky)

    def key(self, s: tuple) -> tuple:
        """The state's point in integers free of c: per axis N and c over
        their gcd, and k."""
        gx, gy = gcd(s[0], self.c[0]), gcd(s[2], self.c[1])
        return s[0] // gx, self.c[0] // gx, s[1], s[2] // gy, self.c[1] // gy, s[3]

    def __len__(self) -> int:
        return self.n_q * self.n_s * self.n_s

    def __getitem__(self, u):
        if isinstance(u, slice):
            return tuple(map(self.__getitem__, range(len(self))[u]))
        ex, ax, jx, ey, ay, jy = self.rows[range(len(self))[u]]
        (cx, cy), ns = self.c, self.n_s
        return ((self.lambdas[ex], Fraction(ax, cx * ns ** jx)),
                (self.lambdas[ey], Fraction(ay, cy * ns ** jy)))

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, Sequence) else NotImplemented

    def __hash__(self):  # the tuple's, as equality is; cached, being O(cells)
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(self))


class Branches(Mapping):
    """A machine's branches, cell (i, j) to ``Branch`` by ``derive_branch`` on
    every read, nothing kept; iterating it gives every cell in row-major order."""

    def __init__(self, partition: Partition):
        self.partition = partition

    def __getitem__(self, cell: tuple[int, int]) -> Branch:
        p, (i, j) = self.partition, cell
        if not (0 <= i < p.n_x_cells and 0 <= j < p.n_y_cells):
            raise KeyError(cell)
        return derive_branch(p.machine, p.triple_of_cell(i, j))

    def __iter__(self):
        return product(range(self.partition.n_x_cells), range(self.partition.n_y_cells))

    def __len__(self) -> int:
        return self.partition.n_x_cells * self.partition.n_y_cells


@dataclass(frozen=True)
class Nda:
    """The full switched system: partition plus one branch per cell."""

    machine: TuringMachine
    partition: Partition
    branches: Mapping[tuple[int, int], Branch]

    @cached_property
    def table(self) -> BranchTable:
        """An explicit dict's table, made on first use (``BranchTable.of_params``
        checks its lambda pairs); ``build_nda`` sets a machine's."""
        m, p = self.machine, self.partition
        branches = map(self.branches.__getitem__, product(range(p.n_x_cells), range(p.n_y_cells)))
        return BranchTable.of_params(m.n_states, m.n_symbols, (
            ((b.lambda_x, b.a_x), (b.lambda_y, b.a_y)) for b in branches))


def build_nda(m: TuringMachine) -> Nda:
    """``m``'s switched system: branches derived on read, table from the transitions."""
    p = build_partition(m)
    auto = Nda(m, p, Branches(p))
    auto.__dict__["table"] = BranchTable.of_machine(m)  # Nda.table's cache: read no branch
    return auto


def nda_step(nda: Nda, pt: Point) -> Point:
    """Apply the branch selected by the switching rule, exactly."""
    table, s = nda.table.fit(pt)
    return table.point(table.step(s)[1])


def nda_successor(nda: Nda, s: tuple, table: BranchTable | None = None) -> tuple | None:
    """The state of ``table`` (the nda's own by default) after ``s``, or
    None in a halt cell: one whose window's state, i // n_s, halts."""
    (i, _), nxt = (nda.table if table is None else table).step(s)
    m = nda.machine
    return None if m.states[i // m.n_symbols] in m.halt_states else nxt


def run_nda(nda: Nda, pt0: Point, max_steps: int) -> Trace[Point]:
    """Iterate the flow; stops when the current cell belongs to a halt state."""
    table, s0 = nda.table.fit(pt0)
    run = Run(partial(nda_successor, nda, table=table), s0, max_steps)
    return Trace(tuple(map(table.point, run)), run.halted)


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
