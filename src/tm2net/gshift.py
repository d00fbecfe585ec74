"""Generalized shift emulating a Turing machine on dotted sequences.

Each step reads the three symbols around the head marker (the symbol two
left of it, the state, and the symbol under the head), rewrites that same
window, and moves the marker one cell left or right.  The rewrite tables
are chosen so that one shift step equals one machine transition; halt
states map to the identity, so halted configurations are fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Mapping, NamedTuple

from .machine import Config, Trace, TuringMachine, canonical_config, iterate

DOT_LEFT = -1
DOT_STAY = 0
DOT_RIGHT = 1


class Triple(NamedTuple):
    """The window read (and rewritten) by the shift.

    ``left`` sits two cells left of the marker, ``state`` directly left of
    it, ``read`` directly under it.
    """

    left: str
    state: str
    read: str


class Rule(NamedTuple):
    shift: int  # marker movement: -1 left, 0 stay, +1 right
    replace: tuple[str, str, str]  # new window contents, same positions


@dataclass(frozen=True)
class GeneralizedShift:
    machine: TuringMachine
    rules: Mapping[Triple, Rule]


def window(m: TuringMachine, c: Config) -> Triple:
    """The window of a configuration, drawing blanks past the explicit lists."""
    left = c.alpha[1] if len(c.alpha) > 1 else m.blank
    read = c.beta[0] if c.beta else m.blank
    return Triple(left, c.alpha[0], read)


def build_gshift(m: TuringMachine) -> GeneralizedShift:
    """Tabulate shift and rewrite for every possible window."""
    rules = {}
    for left, q, read in product(m.tape_symbols, m.states, m.tape_symbols):
        key = Triple(left, q, read)
        if q in m.halt_states:
            rules[key] = Rule(DOT_STAY, (left, q, read))
            continue
        q2, written, move = m.delta[(q, read)]
        if move == "R":
            rules[key] = Rule(DOT_RIGHT, (left, written, q2))
        else:
            rules[key] = Rule(DOT_LEFT, (q2, left, written))
    return GeneralizedShift(m, rules)


def gs_step(g: GeneralizedShift, c: Config) -> Config:
    """Rewrite the window, then move the marker."""
    m = g.machine
    shift, (g1, g2, g3) = g.rules[window(m, c)]
    # window positions: g1 two left of the marker, g2 one left, g3 under it
    alpha = (g2, g1) + c.alpha[2:]
    beta = (g3,) + c.beta[1:]
    if shift == DOT_RIGHT:
        alpha = (beta[0],) + alpha
        beta = beta[1:]
    elif shift == DOT_LEFT:
        beta = (alpha[0],) + beta
        alpha = alpha[1:]
    return canonical_config(m, alpha, beta)


def gs_successor(g: GeneralizedShift, c: Config) -> Config | None:
    """``gs_step``, or None in a halt state."""
    return None if c.state in g.machine.halt_states else gs_step(g, c)


def run_gs(g: GeneralizedShift, c0: Config, max_steps: int) -> Trace:
    """Iterate ``gs_step`` until a halt state is entered or ``max_steps``."""
    return Trace(*iterate(partial(gs_successor, g), c0, max_steps))


def dump_rules(g: GeneralizedShift) -> str:
    """Tab-separated rule table: X q Z F G1 G2 G3, one row per window."""
    m = g.machine
    lines = ["X\tq\tZ\tF\tG1\tG2\tG3"]
    for left, q, read in product(m.tape_symbols, m.states, m.tape_symbols):
        shift, (g1, g2, g3) = g.rules[Triple(left, q, read)]
        lines.append(f"{left}\t{q}\t{read}\t{shift}\t{g1}\t{g2}\t{g3}")
    return "\n".join(lines) + "\n"
