"""Turing machines and their configurations as dotted sequences.

A machine configuration is stored as a pair of finite symbol tuples
``(alpha, beta)``: ``alpha`` is the left half of the tape in reverse order
with the current state prepended, ``beta`` is the tape from the head
position rightwards.  Both halves are implicitly followed by an infinite
run of blanks, so trailing blanks are normalized away and equality of
configurations is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Generic, Iterable, Iterator, Literal, Mapping, Sequence, TypeVar

Move = Literal["L", "R"]
S = TypeVar("S")

MOVES = ("L", "R")

_SECTIONS = ("states", "symbols", "input", "start", "halt", "delta")


class MachineError(ValueError):
    """Base class for machine description and execution errors."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MachineSyntaxError(MachineError):
    """Malformed machine-description text."""


class MachineValidationError(MachineError):
    """A well-formed description that violates a machine invariant."""


class HaltedConfigError(MachineError):
    """Attempt to step a configuration whose state is a halt state."""


def _check_transition(states, symbols, halts, q: str, s: str, q2: str, s2: str,
                      move: str, line: int | None = None) -> None:
    """The invariants of one transition ``(q, s) -> (q2, s2, move)``; the
    parser passes the ``line`` it read the transition from."""
    for name in (q, q2):
        if name not in states:
            raise MachineValidationError(f"undeclared state {name!r}", line)
    for name in (s, s2):
        if name not in symbols:
            raise MachineValidationError(f"undeclared symbol {name!r}", line)
    # the move is the one token whose spelling the format fixes
    if move not in MOVES:
        raise MachineSyntaxError(f"move must be L or R, got {move!r}", line)
    if q in halts:
        raise MachineValidationError(f"halt state {q!r} must not have transitions", line)


@dataclass(frozen=True)
class TuringMachine:
    """A deterministic single-tape machine.

    ``tape_symbols[0]`` is the blank.  ``delta`` maps every pair of
    non-halt state and tape symbol to ``(next state, written symbol,
    move)``; halt states have no entries.  State and symbol enumerations
    are given by declaration order.
    """

    states: tuple[str, ...]
    tape_symbols: tuple[str, ...]
    input_symbols: tuple[str, ...]
    start_state: str
    halt_states: frozenset[str]
    delta: Mapping[tuple[str, str], tuple[str, str, Move]]

    _state_index: dict = field(init=False, repr=False, compare=False)
    _symbol_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.states:
            raise MachineValidationError("machine declares no states")
        if not self.tape_symbols:
            raise MachineValidationError("machine declares no tape symbols")
        if len(set(self.states)) != len(self.states):
            raise MachineValidationError("duplicate state declaration")
        if len(set(self.tape_symbols)) != len(self.tape_symbols):
            raise MachineValidationError("duplicate symbol declaration")
        if self.start_state not in self.states:
            raise MachineValidationError(
                f"start state {self.start_state!r} is not declared"
            )
        for q in self.halt_states:
            if q not in self.states:
                raise MachineValidationError(f"halt state {q!r} is not declared")
        for s in self.input_symbols:
            if s not in self.tape_symbols:
                raise MachineValidationError(f"input symbol {s!r} is not declared")
            if s == self.blank:
                raise MachineValidationError(
                    "blank symbol cannot be part of the input alphabet"
                )
        for (q, s), (q2, s2, move) in self.delta.items():
            _check_transition(self.states, self.tape_symbols, self.halt_states,
                              q, s, q2, s2, move)
        for q in self.states:
            for s in () if q in self.halt_states else self.tape_symbols:
                if (q, s) not in self.delta:
                    raise MachineValidationError(f"missing transition for ({q}, {s})")
        object.__setattr__(
            self, "_state_index", {q: i for i, q in enumerate(self.states)}
        )
        object.__setattr__(
            self, "_symbol_index", {s: i for i, s in enumerate(self.tape_symbols)}
        )

    @property
    def blank(self) -> str:
        return self.tape_symbols[0]

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_symbols(self) -> int:
        return len(self.tape_symbols)

    def state_index(self, q: str) -> int:
        """Enumeration of a state (position in the declaration order)."""
        return self._state_index[q]

    def symbol_index(self, s: str) -> int:
        """Enumeration of a tape symbol; the blank always maps to 0."""
        return self._symbol_index[s]


@dataclass(frozen=True)
class Config:
    """A machine configuration split at the head position.

    ``alpha[0]`` is the current state, ``alpha[1:]`` the tape to the left of
    the head nearest-first, ``beta[0]`` the symbol under the head.  Both
    tuples are canonical: no trailing blanks.
    """

    alpha: tuple[str, ...]
    beta: tuple[str, ...]

    @property
    def state(self) -> str:
        return self.alpha[0]


def canonical_config(m: TuringMachine, alpha: Sequence[str], beta: Sequence[str]) -> Config:
    """Build a configuration, stripping trailing explicit blanks."""
    a, b = tuple(alpha), tuple(beta)
    i, j = len(a), len(b)
    while i > 1 and a[i - 1] == m.blank:
        i -= 1
    while j and b[j - 1] == m.blank:
        j -= 1
    return Config(a[:i], b[:j])  # a whole-tuple slice is the tuple itself


def initial_config(m: TuringMachine, word: Iterable[str]) -> Config:
    """Start configuration: head on the first symbol of ``word``."""
    symbols = tuple(word)
    for s in symbols:
        if s not in m.input_symbols:
            raise MachineValidationError(f"{s!r} is not an input symbol")
    return canonical_config(m, (m.start_state,), symbols)


def tm_step(m: TuringMachine, c: Config) -> Config:
    """Apply one transition.  Raises on halted configurations."""
    q = c.alpha[0]
    if q in m.halt_states:
        raise HaltedConfigError(f"configuration is halted in state {q!r}")
    read = c.beta[0] if c.beta else m.blank
    q2, written, move = m.delta[(q, read)]
    if move == "R":
        alpha = (q2, written) + c.alpha[1:]
        beta = c.beta[1:]
    else:
        left = c.alpha[1] if len(c.alpha) > 1 else m.blank
        alpha = (q2,) + c.alpha[2:]
        beta = (left, written) + c.beta[1:]
    return canonical_config(m, alpha, beta)


@dataclass(frozen=True)
class Trace:
    """A run prefix: the initial configuration and every successor."""

    configs: tuple[Config, ...]
    halted: bool

    @property
    def steps(self) -> int:
        return len(self.configs) - 1

    @property
    def final(self) -> Config:
        return self.configs[-1]


class Run(Generic[S]):
    """A level's run, streamed: iterating yields ``s0`` and its successors,
    at most ``max_steps`` of them, holding only the current state.
    ``successor`` returns a state's next state, or None when the state
    halts.  An exhausted iteration sets ``steps``, ``final`` and ``halted``
    (the verdict of the call that would step ``final``); iterating again
    replays the run."""

    def __init__(self, successor: Callable[[S], S | None], s0: S, max_steps: int):
        if max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        self.successor, self.s0, self.max_steps = successor, s0, max_steps
        self.steps = self.final = self.halted = None

    def __iter__(self) -> Iterator[S]:
        successor, s, steps = self.successor, self.s0, 0
        while True:
            yield s
            nxt = successor(s)
            if nxt is None or steps == self.max_steps:
                self.steps, self.final, self.halted = steps, s, nxt is None
                return
            s, steps = nxt, steps + 1


def iterate(successor: Callable[[S], S | None], s0: S,
            max_steps: int) -> tuple[tuple[S, ...], bool]:
    """The run loop of every level, collected: ``(s0 and its successors, halted)``."""
    run = Run(successor, s0, max_steps)
    return tuple(run), run.halted


def tm_successor(m: TuringMachine, c: Config) -> Config | None:
    """``tm_step``, or None in a halt state."""
    return None if c.state in m.halt_states else tm_step(m, c)


def run_tm(m: TuringMachine, c0: Config, max_steps: int) -> Trace:
    """Iterate ``tm_step`` until a halt state is entered or ``max_steps``."""
    return Trace(*iterate(partial(tm_successor, m), c0, max_steps))


def tape_string(m: TuringMachine, c: Config) -> str:
    """Written tape content, left to right, without the blank margins."""
    symbols = tuple(reversed(c.alpha[1:])) + c.beta
    sep = "" if all(len(s) == 1 for s in m.tape_symbols) else " "
    return sep.join(symbols)


def parse_machine(text: str) -> TuringMachine:
    """Parse the line-oriented machine-description format.

    Sections: ``states:``, ``symbols:`` (first entry is the blank),
    ``input:``, ``start:``, ``halt:`` and one ``delta:`` line per
    transition, written ``q s -> q' s' L|R``.  ``#`` starts a comment.
    """
    sections: dict[str, tuple[int, list[str]]] = {}
    delta_lines: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, rest = line.partition(":")
        key = key.strip()
        if not colon:
            raise MachineSyntaxError("expected 'key: value'", lineno)
        if key not in _SECTIONS:
            raise MachineSyntaxError(f"unknown section {key!r}", lineno)
        tokens = rest.split()
        if key == "delta":
            delta_lines.append((lineno, tokens))
        else:
            if key in sections:
                raise MachineSyntaxError(f"duplicate {key!r} section", lineno)
            sections[key] = (lineno, tokens)

    for key in ("states", "symbols", "input", "start", "halt"):
        if key not in sections:
            raise MachineSyntaxError(f"missing {key!r} section")

    states = tuple(sections["states"][1])
    symbols = tuple(sections["symbols"][1])
    lineno, start_tokens = sections["start"]
    if len(start_tokens) != 1:
        raise MachineSyntaxError("start section must name exactly one state", lineno)
    start = start_tokens[0]
    halts = frozenset(sections["halt"][1])

    delta: dict[tuple[str, str], tuple[str, str, Move]] = {}
    for lineno, tokens in delta_lines:
        if len(tokens) != 6 or tokens[2] != "->":
            raise MachineSyntaxError(
                "delta line must read 'q s -> q' s' L|R'", lineno
            )
        q, s, _, q2, s2, move = tokens
        _check_transition(states, symbols, halts, q, s, q2, s2, move, lineno)
        if (q, s) in delta:
            raise MachineValidationError(f"duplicate transition for ({q}, {s})", lineno)
        delta[(q, s)] = (q2, s2, move)

    return TuringMachine(
        states=states,
        tape_symbols=symbols,
        input_symbols=tuple(sections["input"][1]),
        start_state=start,
        halt_states=halts,
        delta=delta,
    )


def machine_to_text(m: TuringMachine) -> str:
    """Serialize a machine back to the description format."""
    lines = [
        "states: " + " ".join(m.states),
        "symbols: " + " ".join(m.tape_symbols),
        "input: " + " ".join(m.input_symbols),
        "start: " + m.start_state,
        "halt: " + " ".join(q for q in m.states if q in m.halt_states),
    ]
    for q in m.states:
        if q in m.halt_states:
            continue
        for s in m.tape_symbols:
            q2, s2, move = m.delta[(q, s)]
            lines.append(f"delta: {q} {s} -> {q2} {s2} {move}")
    return "\n".join(lines) + "\n"
