import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from tm2net import cli
from tm2net.encode import encode_config
from tm2net.gshift import build_gshift, gs_step, gs_tape_step, run_gs
from tm2net.machine import (
    Config,
    HaltedConfigError,
    MachineError,
    MachineSyntaxError,
    MachineValidationError,
    Run,
    Trace,
    TuringMachine,
    canonical_config,
    config_of,
    initial_config,
    machine_to_text,
    parse_machine,
    run_tm,
    tape_of,
    tape_string,
    tm_step,
    tm_tape_step,
)
from tm2net.nda import build_nda, run_nda
from tm2net.network import build_network, initial_state, run_network

from util import random_config, random_input, random_machine

FLIP_TEXT = """\
states: q0 qH
symbols: _ 0 1          # first symbol is the blank
input: 0 1
start: q0
halt: qH
delta: q0 0 -> q0 1 R
delta: q0 1 -> q0 0 R
delta: q0 _ -> qH _ L
"""


def test_parse_flip(flip):
    assert flip.n_states == 2
    assert flip.n_symbols == 3
    assert flip.blank == "_"
    assert flip.input_symbols == ("0", "1")
    assert flip.start_state == "q0"
    assert flip.halt_states == frozenset({"qH"})
    assert flip.delta[("q0", "0")] == ("q0", "1", "R")
    assert flip.state_index("q0") == 0 and flip.state_index("qH") == 1
    assert flip.symbol_index("_") == 0 and flip.symbol_index("1") == 2


def test_parse_inline_fixture_matches_file(flip):
    assert parse_machine(FLIP_TEXT) == flip


def test_undeclared_state_in_delta():
    text = FLIP_TEXT.replace("-> qH _ L", "-> qX _ L")
    with pytest.raises(MachineValidationError, match="undeclared state 'qX'"):
        parse_machine(text)


def test_undeclared_symbol_in_delta():
    text = FLIP_TEXT.replace("delta: q0 0 -> q0 1 R", "delta: q0 0 -> q0 9 R")
    with pytest.raises(MachineValidationError, match="undeclared symbol '9'"):
        parse_machine(text)


def test_all_halt_machine_needs_no_delta():
    text = "states: qH\nsymbols: _ 0\ninput: 0\nstart: qH\nhalt: qH\n"
    m = parse_machine(text)
    assert m.halt_states == frozenset({"qH"})
    assert not m.delta


def test_duplicate_delta_entry():
    text = FLIP_TEXT + "delta: q0 0 -> q0 0 L\n"
    with pytest.raises(MachineValidationError, match=r"duplicate transition"):
        parse_machine(text)


def test_missing_delta_entry():
    text = FLIP_TEXT.replace("delta: q0 1 -> q0 0 R\n", "")
    with pytest.raises(MachineValidationError, match=r"missing transition for \(q0, 1\)"):
        parse_machine(text)


def test_blank_in_input_alphabet():
    text = FLIP_TEXT.replace("input: 0 1", "input: 0 1 _")
    with pytest.raises(MachineValidationError, match="blank"):
        parse_machine(text)


def test_halt_state_transition_rejected():
    text = FLIP_TEXT + "delta: qH 0 -> q0 0 R\n"
    with pytest.raises(MachineValidationError, match="halt state 'qH'"):
        parse_machine(text)


def test_syntax_error_carries_line_number():
    text = FLIP_TEXT + "delta: q0 0 q0 1 R\n"
    with pytest.raises(MachineSyntaxError, match="line 9"):
        parse_machine(text)


@pytest.mark.parametrize("line, message", [
    ("delta: q0 0 -> qX 1 R", "undeclared state 'qX'"),
    ("delta: q0 0 -> q0 9 R", "undeclared symbol '9'"),
    ("delta: q0 0 -> q0 1 S", "move must be L or R"),
    ("delta: qH 0 -> q0 1 R", "halt state 'qH' must not have transitions"),
])
def test_transition_checks_are_shared_and_the_parser_adds_the_line(line, message):
    text = FLIP_TEXT.replace("delta: q0 0 -> q0 1 R", line)
    with pytest.raises(MachineError, match=f"^line 6: {message}"):
        parse_machine(text)
    # the constructor runs the same check, without a line
    q, s, _, q2, s2, move = line.split()[1:]
    m = parse_machine(FLIP_TEXT)
    delta = {k: v for k, v in m.delta.items() if k != ("q0", "0")}
    delta[(q, s)] = (q2, s2, move)
    with pytest.raises(MachineError, match=f"^{message}"):
        TuringMachine(m.states, m.tape_symbols, m.input_symbols, m.start_state,
                      m.halt_states, delta)


def test_bad_move_letter():
    text = FLIP_TEXT.replace("-> qH _ L", "-> qH _ S")
    with pytest.raises(MachineSyntaxError, match="move must be L or R"):
        parse_machine(text)


def test_unknown_section():
    with pytest.raises(MachineSyntaxError, match="unknown section"):
        parse_machine("tape: x\n" + FLIP_TEXT)


def test_missing_section():
    with pytest.raises(MachineSyntaxError, match="missing 'halt'"):
        parse_machine(FLIP_TEXT.replace("halt: qH\n", ""))


def test_duplicate_section():
    with pytest.raises(MachineSyntaxError, match="duplicate 'start'"):
        parse_machine(FLIP_TEXT.replace("start: q0\n", "start: q0\nstart: q0\n"))


def test_tm_step_right_move(flip):
    c = Config(("q0",), ("0", "1"))
    assert tm_step(flip, c) == Config(("q0", "1"), ("1",))


def test_tm_step_on_halted_config_raises(flip):
    with pytest.raises(HaltedConfigError):
        tm_step(flip, Config(("qH",), ("0",)))


def test_tm_step_left_move_draws_blank_from_tail(flip):
    # head on blank with nothing written to the left: X comes from the tail
    c = Config(("q0",), ())
    out = tm_step(flip, c)
    assert out == Config(("qH",), ())


def test_run_tm_flip_halts_in_three_steps(flip):
    trace = run_tm(flip, initial_config(flip, "01"), 10)
    assert trace.halted
    assert trace.steps == 3
    assert trace.final == Config(("qH", "1"), ("0",))
    assert tape_string(flip, trace.final) == "10"


def test_run_tm_zero_steps_times_out(flip):
    c0 = initial_config(flip, "01")
    trace = run_tm(flip, c0, 0)
    assert trace.configs == (c0,)
    assert not trace.halted


def test_run_tm_immediate_halt():
    m = parse_machine("states: qH\nsymbols: _ 0\ninput: 0\nstart: qH\nhalt: qH\n")
    trace = run_tm(m, initial_config(m, ""), 5)
    assert trace.configs == (Config(("qH",), ()),)
    assert trace.halted


IMMEDIATE_HALT_TEXT = "states: qH\nsymbols: _ 0\ninput: 0\nstart: qH\nhalt: qH\n"


def _run_at(level, m, c0, max_steps):
    """(the trace, start state) of the level's ``run_*`` from ``c0``."""
    if level == "tm":
        return run_tm(m, c0, max_steps), c0
    if level == "gs":
        return run_gs(build_gshift(m), c0, max_steps), c0
    auto, pt0 = build_nda(m), encode_config(m, c0)
    if level == "nda":
        return run_nda(auto, pt0, max_steps), pt0
    net = build_network(auto)
    s0 = initial_state(net, pt0)
    return run_network(net, s0, max_steps), s0


@pytest.mark.parametrize("level", ["tm", "gs", "nda", "net"])
def test_every_level_runs_the_same_loop(flip, level):
    c0 = initial_config(flip, "01")
    with pytest.raises(ValueError, match="max_steps"):
        _run_at(level, flip, c0, -1)
    # no steps: only the start state, halted exactly when it halts
    trace, start = _run_at(level, flip, c0, 0)
    assert trace.states == (start,) and not trace.halted
    m = parse_machine(IMMEDIATE_HALT_TEXT)
    trace, start = _run_at(level, m, initial_config(m, ""), 0)
    assert trace.states == (start,) and trace.halted
    # flip halts on its third step, so a budget of exactly 3 suffices
    trace, _ = _run_at(level, flip, c0, 3)
    assert len(trace.states) == 4 and trace.halted


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 40))
def test_streamed_runs_yield_the_states_of_run_star(seed, max_steps):
    # the level table an exact ``run`` streams through, against every run_*
    rng = random.Random(seed)
    m = random_machine(rng)
    c0 = initial_config(m, random_input(rng, m))
    for level in cli.LEVELS:
        start, successor, to_config, _ = cli.LEVELS[level](m)
        run = Run(successor, start(c0), max_steps)
        trace, s0 = _run_at(level, m, c0, max_steps)
        # every run_* collects its run in one record, under its level's names too
        assert type(trace) is Trace
        assert trace.configs is trace.points is trace.states
        # tm and gs stream tapes, nda kernel states: compare them through the
        # level's configurations and the kernel's points
        point = {"tm": to_config, "gs": to_config,
                 "nda": build_nda(m).table.point}.get(level, lambda s: s)
        assert s0 == point(start(c0))
        assert tuple(map(point, run)) == trace.states
        assert (run.steps, point(run.final), run.halted) == (trace.steps, trace.final, trace.halted)
        assert trace.steps == len(trace.states) - 1 and trace.final == trace.states[-1]
        assert tuple(map(point, run)) == trace.states  # iterating again replays the run
        assert to_config(run.final) == run_tm(m, c0, max_steps).configs[run.steps]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.integers(0, 3), max_size=4),
       st.lists(st.integers(0, 3), max_size=4), st.integers(0, 30))
def test_tape_steps_equal_the_config_steps(seed, left, right, max_steps):
    # short halves of any symbols, blanks at the edges and empty halves
    # included, so that left moves run off the left end
    rng = random.Random(seed)
    m = random_machine(rng)
    cells = [m.tape_symbols[i % m.n_symbols] for i in left + right]
    c0 = canonical_config(m, [rng.choice(m.states)] + cells[:len(left)], cells[len(left):])
    g = build_gshift(m)
    for tape_step, trace in ((partial(tm_tape_step, m), run_tm(m, c0, max_steps)),
                             (partial(gs_tape_step, g), run_gs(g, c0, max_steps))):
        run = Run(tape_step, tape_of(c0), max_steps)
        tapes = tuple(run)
        assert tuple(map(config_of, tapes)) == trace.configs
        assert (run.steps, run.halted) == (trace.steps, trace.halted)
        for t in tapes:
            c = config_of(t)
            # no list ends in a blank
            assert len(c.alpha) == 1 or c.alpha[-1] != m.blank
            assert not c.beta or c.beta[-1] != m.blank
            if c.state in m.halt_states:
                assert tape_step(t) is None
            else:
                assert config_of(tape_step(t)) == tm_step(m, c) == gs_step(g, c)


def test_initial_config(flip):
    assert initial_config(flip, "01") == Config(("q0",), ("0", "1"))
    assert initial_config(flip, "") == Config(("q0",), ())
    with pytest.raises(MachineValidationError, match="not an input symbol"):
        initial_config(flip, ("0", "_"))


@given(st.lists(st.sampled_from(["_", "0", "1"]), max_size=8),
       st.lists(st.sampled_from(["_", "0", "1"]), max_size=8))
def test_canonicalization_idempotent(alpha_tail, beta):
    m = parse_machine(FLIP_TEXT)
    c = canonical_config(m, ["q0"] + alpha_tail, beta)
    again = canonical_config(m, c.alpha, c.beta)
    assert again == c
    assert len(c.alpha) == 1 or c.alpha[-1] != "_"
    assert not c.beta or c.beta[-1] != "_"


def test_step_preserves_type_invariant():
    rng = random.Random(11)
    for _ in range(200):
        m = random_machine(rng)
        c = random_config(rng, m)
        if c.state in m.halt_states:
            continue
        out = tm_step(m, c)
        assert out.alpha[0] in m.states
        assert all(s in m.tape_symbols for s in out.alpha[1:])
        assert all(s in m.tape_symbols for s in out.beta)


def test_trace_shape_and_adjacency():
    rng = random.Random(12)
    for _ in range(50):
        m = random_machine(rng)
        c0 = canonical_config(m, (m.start_state,), ())
        trace = run_tm(m, c0, 20)
        assert len(trace.configs) <= 21
        for a, b in zip(trace.configs, trace.configs[1:]):
            assert tm_step(m, a) == b


def test_machine_text_round_trip():
    rng = random.Random(13)
    for _ in range(25):
        m = random_machine(rng)
        assert parse_machine(machine_to_text(m)) == m


def test_constructor_validation_missing_transition():
    with pytest.raises(MachineValidationError, match="missing transition"):
        TuringMachine(
            states=("a", "h"),
            tape_symbols=("_", "x"),
            input_symbols=("x",),
            start_state="a",
            halt_states=frozenset({"h"}),
            delta={("a", "_"): ("h", "_", "R")},
        )
