import random
from itertools import product

from tm2net import gshift
from tm2net.cli import run_level
from tm2net.gshift import (
    DOT_LEFT,
    DOT_RIGHT,
    DOT_STAY,
    Triple,
    build_gshift,
    dump_rules,
    gs_step,
    run_gs,
    window,
)
from tm2net.machine import Config, canonical_config, initial_config, run_tm, tm_step

from util import random_config, random_input, random_machine


def all_triples(m):
    return [Triple(x, q, z)
            for x, q, z in product(m.tape_symbols, m.states, m.tape_symbols)]


def config_with_window(m, rng, triple):
    """A random canonical configuration whose window equals ``triple``."""
    alpha = (triple.state, triple.left) + tuple(
        rng.choice(m.tape_symbols) for _ in range(rng.randint(0, 4)))
    beta = (triple.read,) + tuple(
        rng.choice(m.tape_symbols) for _ in range(rng.randint(0, 4)))
    return canonical_config(m, alpha, beta)


def test_right_move_rule(flip):
    g = build_gshift(flip)
    assert g.rules[Triple("_", "q0", "0")] == (DOT_RIGHT, ("_", "1", "q0"))


def test_halt_rule_is_identity(flip):
    g = build_gshift(flip)
    assert g.rules[Triple("0", "qH", "1")] == (DOT_STAY, ("0", "qH", "1"))


def test_left_move_rule(flip):
    g = build_gshift(flip)
    assert g.rules[Triple("1", "q0", "_")] == (DOT_LEFT, ("qH", "1", "_"))


def test_table_total_and_replacements_well_formed():
    rng = random.Random(21)
    for _ in range(20):
        m = random_machine(rng)
        g = build_gshift(m)
        triples = all_triples(m)
        for t in triples:
            shift, replace = g.rules[t]
            state_positions = [k for k, sym in enumerate(replace)
                               if sym in m.states]
            # exactly one state, placed so the shifted image is a valid
            # dotted sequence: middle for stay, right for a right move,
            # left for a left move
            assert state_positions == [1 + shift]
        # rules are derived on read: once every window is read, they are all there
        assert set(g.rules) == set(triples)


def test_gs_step_examples(flip):
    g = build_gshift(flip)
    assert gs_step(g, Config(("q0",), ("0", "1"))) == Config(("q0", "1"), ("1",))
    halted = Config(("qH", "1"), ("0",))
    assert gs_step(g, halted) == halted
    assert gs_step(g, Config(("q0", "1"), ("1",))) == Config(("q0", "0", "1"), ())


def test_emulation_equivalence_exhaustive_windows():
    rng = random.Random(22)
    for _ in range(30):
        m = random_machine(rng)
        g = build_gshift(m)
        for triple in all_triples(m):
            c = config_with_window(m, rng, triple)
            assert window(m, c) == triple
            if triple.state in m.halt_states:
                assert gs_step(g, c) == c
            else:
                assert gs_step(g, c) == tm_step(m, c)


def test_emulation_equivalence_random_configs():
    rng = random.Random(23)
    for _ in range(300):
        m = random_machine(rng)
        g = build_gshift(m)
        c = random_config(rng, m)
        if c.state in m.halt_states:
            assert gs_step(g, c) == c
        else:
            assert gs_step(g, c) == tm_step(m, c)


def test_halt_configs_are_fixed_points_flip(flip):
    g = build_gshift(flip)
    rng = random.Random(24)
    for _ in range(100):
        c = random_config(rng, flip)
        fixed = gs_step(g, c) == c
        # FLIP has no stationary non-halt configurations, so fixed points
        # are exactly the halt configurations
        assert fixed == (c.state in flip.halt_states)


def test_fixed_points_general():
    # in general a fixed point is either halted or a configuration the
    # machine itself leaves unchanged (blank self-loop off the tape edge)
    rng = random.Random(25)
    for _ in range(200):
        m = random_machine(rng)
        g = build_gshift(m)
        c = random_config(rng, m)
        if gs_step(g, c) == c:
            assert c.state in m.halt_states or tm_step(m, c) == c


def test_run_gs_matches_run_tm(flip):
    c0 = initial_config(flip, "01")
    gs_trace = run_gs(build_gshift(flip), c0, 10)
    tm_trace = run_tm(flip, c0, 10)
    assert gs_trace == tm_trace


def test_dump_rules_format(flip):
    g = build_gshift(flip)
    lines = dump_rules(g).splitlines()
    assert lines[0] == "X\tq\tZ\tF\tG1\tG2\tG3"
    assert len(lines) == 1 + flip.n_symbols ** 2 * flip.n_states
    assert "_\tq0\t0\t1\t_\t1\tq0" in lines
    assert "1\tq0\t_\t-1\tqH\t1\t_" in lines


def test_window_uses_blank_tails(flip):
    assert window(flip, Config(("q0",), ())) == Triple("_", "q0", "_")


def test_a_gs_run_pays_per_visited_window(monkeypatch):
    # 3 states, one halting, and 200 symbols: 120,000 windows, of which a
    # 10-step run reads at most 11 (this seed's run does not halt in 10)
    rng = random.Random(9)
    m = random_machine(rng, shape=(3, 200))
    rules, real_rule = [], gshift._rule
    monkeypatch.setattr(gshift, "_rule", lambda m, key: rules.append(key) or real_rule(m, key))
    report, _ = run_level(m, random_input(rng, m, 8), "gs", 10)
    assert report.steps == 10 and not report.halted
    assert 1 <= len(rules) <= 11 and len(set(rules)) == len(rules)
