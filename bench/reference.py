"""Reference interpreter for the benchmark's known answers.

Standard library only, and independent of ``tm2net``: it has its own
parser for the machine-description format, runs the machine on a
bytearray tape, and computes the Godel point of the final configuration
with integer arithmetic.  Every benchmark operation is checked against
it, so a bug shared by all four tm2net levels still shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class RefMachine:
    states: tuple[str, ...]
    symbols: tuple[str, ...]  # symbols[0] is the blank
    start: str
    halts: frozenset[str]
    delta: dict  # (state, symbol) -> (state, symbol, "L" | "R")


@dataclass(frozen=True)
class RefResult:
    """Outcome of a run, in the canonical dotted-sequence form.

    ``alpha`` is the state followed by the tape left of the head, nearest
    cell first; ``beta`` the tape from the head rightwards.  Both have
    their trailing blanks stripped.
    """

    steps: int
    halted: bool
    alpha: tuple[str, ...]
    beta: tuple[str, ...]
    x: Fraction
    y: Fraction

    @property
    def state(self) -> str:
        return self.alpha[0]


def parse(text: str) -> RefMachine:
    """Parse the ``key: value`` format (``#`` comments, one delta per line)."""
    fields: dict[str, list[str]] = {}
    delta = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        tokens = rest.split()
        if key.strip() == "delta":
            q, s, arrow, q2, s2, move = tokens
            if arrow != "->" or move not in ("L", "R"):
                raise ValueError(f"bad delta line: {raw!r}")
            delta[(q, s)] = (q2, s2, move)
        else:
            fields[key.strip()] = tokens
    return RefMachine(
        states=tuple(fields["states"]),
        symbols=tuple(fields["symbols"]),
        start=fields["start"][0],
        halts=frozenset(fields["halt"]),
        delta=delta,
    )


def run(m: RefMachine, word, max_steps: int) -> RefResult:
    """Run from ``word`` (head on its first symbol) for at most ``max_steps``.

    Stops on entering a halt state.  The tape is a bytearray of symbol
    indices that doubles towards whichever end the head leaves.
    """
    sym = {s: i for i, s in enumerate(m.symbols)}
    st = {q: i for i, q in enumerate(m.states)}
    ns = len(m.symbols)
    halting = [q in m.halts for q in m.states]
    # table[state * ns + symbol] = (written symbol, head move, next state)
    table = [None] * (len(m.states) * ns)
    for (q, s), (q2, s2, move) in m.delta.items():
        table[st[q] * ns + sym[s]] = (sym[s2], 1 if move == "R" else -1, st[q2])

    tape = bytearray(sym[s] for s in word) or bytearray(1)
    head = 0
    q = st[m.start]
    steps = 0
    while steps < max_steps and not halting[q]:
        write, move, q = table[q * ns + tape[head]]
        tape[head] = write
        head += move
        if head < 0:
            grow = len(tape)
            tape[:0] = bytes(grow)
            head += grow
        elif head == len(tape):
            tape.extend(bytes(len(tape)))
        steps += 1

    left = bytes(reversed(tape[:head])).rstrip(b"\0")
    right = bytes(tape[head:]).rstrip(b"\0")
    nq = len(m.states)
    x = Fraction(q * ns ** len(left) + _radix(left, ns), nq * ns ** len(left))
    y = Fraction(_radix(right, ns), ns ** len(right))
    return RefResult(
        steps=steps,
        halted=halting[q],
        alpha=(m.states[q],) + tuple(m.symbols[d] for d in left),
        beta=tuple(m.symbols[d] for d in right),
        x=x,
        y=y,
    )


def _radix(digits: bytes, base: int) -> int:
    """The integer whose base-``base`` digits are ``digits``, first most significant."""
    value = 0
    for d in digits:
        value = value * base + d
    return value


def ones(result: RefResult, symbol: str = "1") -> int:
    """How often ``symbol`` appears on the final tape."""
    return result.alpha[1:].count(symbol) + result.beta.count(symbol)


def unit_count(m: RefMachine) -> int:
    """The paper's network size: 2 MCL + BSL + 2*n_s^2*n_q LTL + 1 bias."""
    nq, ns = len(m.states), len(m.symbols)
    return 2 + ns + ns * nq + 2 * ns * ns * nq + 1
