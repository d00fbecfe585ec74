"""Shared test helpers: deterministic random machines, inputs, configs,
the benchmark's runs, and the oracles the fast steps replaced."""

from __future__ import annotations

import random
import runpy
from collections import deque
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path

from tm2net.encode import Point
from tm2net.gshift import Triple
from tm2net.machine import Config, TuringMachine, canonical_config, parse_machine
from tm2net.nda import Branch, CellRangeError, Nda, build_partition, grid_bounds
from tm2net.network import BSL_X, BSL_Y, LTL_X, LTL_Y

MOVES = ("L", "R")


def halt_reachable(m: TuringMachine) -> bool:
    """BFS over the state graph induced by delta targets."""
    seen = {m.start_state}
    queue = deque([m.start_state])
    while queue:
        q = queue.popleft()
        if q in m.halt_states:
            return True
        for s in m.tape_symbols:
            q2 = m.delta[(q, s)][0]
            if q2 not in seen:
                seen.add(q2)
                queue.append(q2)
    return False


def random_machine(rng: random.Random, max_states: int = 4,
                   max_symbols: int = 4, shape: tuple[int, int] | None = None) -> TuringMachine:
    """Uniform transition targets; guaranteed at least one reachable halt
    state.  ``shape`` fixes (n_q, n_s), otherwise drawn up to the maxima."""
    n_q, n_s = shape or (rng.randint(1, max_states), rng.randint(2, max_symbols))
    states = tuple(f"q{i}" for i in range(n_q))
    symbols = ("_",) + tuple(f"s{i}" for i in range(1, n_s))
    if n_q == 1:
        halts = frozenset(states)
    else:
        halts = frozenset(rng.sample(states, rng.randint(1, max(1, n_q // 2))))

    def draw():
        delta = {}
        for q in states:
            if q in halts:
                continue
            for s in symbols:
                delta[(q, s)] = (rng.choice(states), rng.choice(symbols),
                                 rng.choice(MOVES))
        return TuringMachine(
            states=states,
            tape_symbols=symbols,
            input_symbols=symbols[1:],
            start_state=states[0],
            halt_states=halts,
            delta=delta,
        )

    m = draw()
    for _ in range(50):
        if halt_reachable(m):
            return m
        m = draw()
    # rare corner: force the start state to reach a halt state directly
    delta = dict(m.delta)
    delta[(m.start_state, m.blank)] = (sorted(m.halt_states)[0], m.blank, "R")
    return TuringMachine(m.states, m.tape_symbols, m.input_symbols,
                         m.start_state, m.halt_states, delta)


def random_input(rng: random.Random, m: TuringMachine,
                 max_len: int = 6) -> tuple[str, ...]:
    if not m.input_symbols:
        return ()
    return tuple(rng.choice(m.input_symbols) for _ in range(rng.randint(0, max_len)))


def random_config(rng: random.Random, m: TuringMachine,
                  max_tail: int = 5) -> Config:
    alpha = (rng.choice(m.states),) + tuple(
        rng.choice(m.tape_symbols) for _ in range(rng.randint(0, max_tail)))
    beta = tuple(rng.choice(m.tape_symbols) for _ in range(rng.randint(0, max_tail)))
    return canonical_config(m, alpha, beta)


def machine_with_sizes(n_q: int, n_s: int) -> TuringMachine:
    """A trivial total machine of exactly the requested alphabet sizes."""
    states = tuple(f"q{i}" for i in range(n_q))
    symbols = ("_",) + tuple(f"s{i}" for i in range(1, n_s))
    halts = frozenset({states[-1]})
    delta = {}
    for i, q in enumerate(states):
        if q in halts:
            continue
        for s in symbols:
            delta[(q, s)] = (states[min(i + 1, n_q - 1)], s, "R")
    return TuringMachine(states, symbols, symbols[1:], states[0], halts, delta)


def corrupt(auto, rng: random.Random, kind: str, h=None):
    """``auto`` with one random cell's offset on one random axis moved:
    ``k/7`` adds 1/7, 2/7 or 3/7, ``-1/36`` and ``+1`` add those, ``-h``
    subtracts ``h``; ``none`` leaves it."""
    if kind == "none":
        return auto
    delta = {"k/7": Fraction(rng.randint(1, 3), 7), "-1/36": Fraction(-1, 36),
             "+1": Fraction(1), "-h": -h}[kind]
    cell = rng.choice(sorted(auto.branches))
    b = auto.branches[cell]
    a_x, a_y = (b.a_x + delta, b.a_y) if rng.random() < 0.5 else (b.a_x, b.a_y + delta)
    branches = dict(auto.branches)
    branches[cell] = Branch(a_x, a_y, b.lambda_x, b.lambda_y, b.triple, b.action)
    return Nda(auto.machine, auto.partition, branches)


def fraction_branch(m: TuringMachine, triple: Triple) -> Branch:
    """The per-window sum of Fractions that ``nda.transition_form``'s
    integer records replaced, kept as the oracle of ``derive_branch``."""
    X, q, Z = triple
    nq, ns = m.n_states, m.n_symbols
    gq, gs = m.state_index, m.symbol_index
    if q in m.halt_states:
        return Branch(Fraction(0), Fraction(0), Fraction(1), Fraction(1), triple, None)
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


def eager_nda(m: TuringMachine) -> Nda:
    """``m``'s switched system with every branch built up front by
    ``fraction_branch``, in a dict: the table ``nda.build_nda`` derives on read."""
    p = build_partition(m)
    return Nda(m, p, {(i, j): fraction_branch(m, p.triple_of_cell(i, j))
                      for i in range(p.n_x_cells) for j in range(p.n_y_cells)})


def fraction_step(auto, pt, net: bool = False):
    """The Fraction step the scaled-integer kernel replaced, kept as its
    oracle: the cell by Fraction floors, then ``Branch.apply``.  For the
    network (``net``) the cells are closed at 1 and the ramp clips at 0;
    a point outside the square raises CellRangeError."""
    x, y = pt
    if not (0 <= x <= 1 and 0 <= y <= 1) or not net and (x == 1 or y == 1):
        raise CellRangeError(f"point ({x}, {y}) outside the square")
    n_x, n_y = auto.partition.n_x_cells, auto.partition.n_y_cells
    nxt = auto.branches[(min(int(x * n_x), n_x - 1), min(int(y * n_y), n_y - 1))].apply(pt)
    return Point(*(max(v, 0) for v in nxt)) if net else nxt


def compare_per_step(m: TuringMachine, word, max_steps: int, auto=None, net=None):
    """The per-step compare that ``cli.compare_levels`` replaced, kept as its
    oracle: tm's whole run of tapes first, then every configuration encoded
    and checked against gs's, nda's and net's, gs stepped on its own tapes
    and nda by the Fraction oracle.  Calls go through the modules, tm and gs
    through their tape steps, so a monkeypatched fault reaches both."""
    from tm2net import cli, encode, gshift, machine, nda, network

    c0 = machine.initial_config(m, word)
    tm_run = machine.Run(partial(machine.tm_tape_step, m), machine.tape_of(c0), max_steps)
    tm_configs = [machine.config_of(t) for t in tm_run]
    steps, halted = tm_run.steps, tm_run.halted
    gs = gshift.build_gshift(m)
    auto = auto if auto is not None else nda.build_nda(m)
    net = net if net is not None else network.build_network(auto)

    gs_t = machine.tape_of(c0)
    pt = encode.encode_config(m, c0)
    state = network.initial_state(net, pt)
    for t in range(steps + 1):
        tm_c, gs_c = tm_configs[t], machine.config_of(gs_t)
        reference = encode.encode_config(m, tm_c)
        if gs_c != tm_c:
            return cli.CompareResult(False, steps, halted,
                                     (t, "tm", "gs", reference, encode.encode_config(m, gs_c)))
        for level, got in (("nda", pt), ("net", encode.Point(*state.mcl))):
            if got != reference:
                return cli.CompareResult(False, steps, halted, (t, "tm", level, reference, got))
        if t < steps:
            gs_t = gshift.gs_tape_step(gs, gs_t) or gs_t  # a halt rule stays, as in gs_step
            pt = fraction_step(auto, pt)
            state = network.net_step(net, state)
    return cli.CompareResult(True, steps, halted)


def info_oracle(net) -> tuple[int, int, int, int]:
    """The counts of ``info``'s weights line as it read them off the whole
    weight dict, every cell and every grid line, kept as the oracle of its
    closed forms: edges, distinct scale weights, distinct bias offsets and
    distinct thresholds."""
    params = tuple(net.branch_params)
    lambdas = {lam for cell in params for lam, _ in cell}
    offsets = {a - net.h for cell in params for _, a in cell}
    thresholds = {b for bounds in grid_bounds(net.n_q, net.n_s) for b in bounds[:-1]}
    return len(net.weights), len(lambdas), len(offsets), len(thresholds)


@lru_cache(maxsize=8)
def in_edges(net, exact: bool = True) -> tuple:
    """Per unit, its (source, weight) in-edges by source id, from the weight
    dict; float64 weights for ``exact=False``."""
    incoming = [[] for _ in range(net.n_units)]
    for (src, dst), w in sorted(net.weights.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        incoming[dst].append((src, w if exact else float(w)))
    return tuple(tuple(edges) for edges in incoming)


def bsl_ids(net) -> tuple[int, ...]:
    return tuple(u.id for u in net.units if u.kind in (BSL_X, BSL_Y))


def ltl_ids(net) -> tuple[int, ...]:
    return tuple(u.id for u in net.units if u.kind in (LTL_X, LTL_Y))


def dense_sweep(net, values: tuple, exact: bool) -> tuple:
    """One machine step as a three-phase sweep over every in-edge, the
    network's definition and the oracle of both modes' ``net_step``.

    Phase 1 re-thresholds the BSL against the current MCL, phase 2 lets the
    LTL read MCL, BSL and bias, phase 3 writes the LTL sums back into the
    MCL through the ramp.
    """
    edges = in_edges(net, exact)
    zero = Fraction(0) if exact else 0.0
    vals = list(values)
    # MCL values are untouched until phase 3, so reading `vals` below always
    # sees old MCL and (in phase 2) fresh BSL.
    for ids in (bsl_ids(net), ltl_ids(net), (0, 1)):
        heaviside = net.units[ids[0]].kind in (BSL_X, BSL_Y)
        for u in ids:
            total = zero
            for src, w in edges[u]:
                v = vals[src]
                if v:
                    total = total + w * v
            vals[u] = (1 if total >= 0 else 0) if heaviside else (total if total > 0 else zero)
    return tuple(vals)


def bench_run(name: str, seed: int = 1):
    """The machine, input word and step budget of the benchmark workload
    ``name`` at ``seed``, read from ``bench/workloads.py``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    w = runpy.run_path(str(path))["WORKLOADS"][name]
    return parse_machine(w.machine.read_text()), tuple(w.word(seed)), w.budget
