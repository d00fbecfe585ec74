"""Shared test helpers: deterministic random machines, inputs, configs."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

from tm2net.encode import Point
from tm2net.machine import Config, TuringMachine, canonical_config
from tm2net.nda import Branch, CellRangeError, Nda

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
                   max_symbols: int = 4) -> TuringMachine:
    """Uniform transition targets; guaranteed at least one reachable halt state."""
    n_q = rng.randint(1, max_states)
    n_s = rng.randint(2, max_symbols)
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
    oracle: tm's whole trace first, then every configuration encoded and
    checked against gs, nda and net, nda stepped by the Fraction oracle.
    Calls go through the modules, so a monkeypatched fault reaches both."""
    from tm2net import cli, encode, gshift, machine, nda, network

    c0 = machine.initial_config(m, word)
    tm_trace = machine.run_tm(m, c0, max_steps)
    steps = tm_trace.steps
    gs = gshift.build_gshift(m)
    auto = auto if auto is not None else nda.build_nda(m)
    net = net if net is not None else network.build_network(auto)

    gs_c = c0
    pt = encode.encode_config(m, c0)
    state = network.initial_state(net, pt)
    for t in range(steps + 1):
        tm_c = tm_trace.configs[t]
        reference = encode.encode_config(m, tm_c)
        if gs_c != tm_c:
            return cli.CompareResult(False, steps, tm_trace.halted,
                                     (t, "tm", "gs", reference, encode.encode_config(m, gs_c)))
        for level, got in (("nda", pt), ("net", encode.Point(*state.mcl))):
            if got != reference:
                return cli.CompareResult(False, steps, tm_trace.halted,
                                         (t, "tm", level, reference, got))
        if t < steps:
            gs_c = gshift.gs_step(gs, gs_c)
            pt = fraction_step(auto, pt)
            state = network.net_step(net, state)
    return cli.CompareResult(True, steps, tm_trace.halted)
