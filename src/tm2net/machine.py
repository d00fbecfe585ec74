"""Turing machines and their configurations as dotted sequences.

A machine configuration is stored as a pair of finite symbol tuples
``(alpha, beta)``: ``alpha`` is the left half of the tape in reverse order
with the current state prepended, ``beta`` is the tape from the head
position rightwards.  Both halves are implicitly followed by an infinite
run of blanks, so trailing blanks are normalized away and equality of
configurations is decidable.

A run steps a *tape* instead: the same two halves as cons lists,
``(left, right)``, each ``(symbol, rest)`` or None for the empty list, with
the state on top of ``left``.  A step pops and pushes at most three cells
(``push`` keeps the lists canonical) and shares the rest with the tape
before it, so it costs O(1) whatever the span; ``tape_of`` and
``config_of`` convert at the ends of a run.  Never compare, hash or
``repr`` a whole tape: tuple equality recurses once per cell.
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
    """Start configuration: head on the first symbol of ``word``.  Input
    symbols are never blank, so it is canonical as it stands."""
    symbols = tuple(word)
    for s in symbols:
        if s not in m.input_symbols:
            raise MachineValidationError(f"{s!r} is not an input symbol")
    return Config((m.start_state,), symbols)


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


Tape = tuple  # (left, right): see the module docstring


def push(m: TuringMachine, s: str, rest):
    """The list ``s`` on ``rest``, canonical: a blank pushed onto the empty
    list leaves it empty, so no list ends in a blank."""
    return (s, rest) if rest is not None or s != m.blank else None


def tape_of(c: Config) -> Tape:
    """A canonical configuration's tape."""
    left = right = None
    for s in reversed(c.alpha):
        left = (s, left)
    for s in reversed(c.beta):
        right = (s, right)
    return left, right


def config_of(t: Tape) -> Config:
    """A tape's configuration."""
    halves = []
    for cells in t:
        half = []
        while cells is not None:
            s, cells = cells
            half.append(s)
        halves.append(tuple(half))
    return Config(*halves)


def same_cells(a, b) -> bool:
    """Whether cons lists ``a`` and ``b`` are equal, walked from the head
    until they share a tail: O(1) for two steps of one tape, which share
    all but the at most three cells a step pushes."""
    while a is not b:
        if a is None or b is None or a[0] != b[0]:
            return False
        a, b = a[1], b[1]
    return True


def tm_tape_step(m: TuringMachine, t: Tape) -> Tape | None:
    """``tm_successor`` on a tape: pop the read symbol, push the written one
    and move the state; None in a halt state."""
    (q, left), right = t
    if q in m.halt_states:
        return None
    read, right = right or (m.blank, None)
    q2, written, move = m.delta[q, read]
    if move == "R":
        return (q2, push(m, written, left)), right
    x, left = left or (m.blank, None)
    return (q2, left), push(m, x, push(m, written, right))


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


@dataclass(frozen=True)
class Trace(Generic[S]):
    """A level's run, collected: the start state and every successor, and
    whether the run halted.  ``configs`` (tm, gs) and ``points`` (nda) are
    read-only names for ``states``."""

    states: tuple[S, ...]
    halted: bool

    @classmethod
    def of(cls, run: Run[S]) -> Trace[S]:
        """``run``'s states, from a full iteration, and its verdict."""
        states = tuple(run)
        return cls(states, run.halted)

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    @property
    def final(self) -> S:
        return self.states[-1]

    @property
    def configs(self) -> tuple[S, ...]:
        return self.states

    points = configs


class _Rows(dict):
    """A table's entries by key, each made by ``derive`` on its first read."""

    def __init__(self, derive):
        self.derive = derive

    def __missing__(self, key):
        self[key] = value = self.derive(key)
        return value


def tm_successor(m: TuringMachine, c: Config) -> Config | None:
    """``tm_step``, or None in a halt state."""
    return None if c.state in m.halt_states else tm_step(m, c)


def run_tm(m: TuringMachine, c0: Config, max_steps: int) -> Trace:
    """Iterate ``tm_step`` until a halt state is entered or ``max_steps``."""
    return Trace.of(Run(partial(tm_successor, m), c0, max_steps))


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
