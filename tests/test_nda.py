import random
from fractions import Fraction
from itertools import product

import pytest

from tm2net import nda
from tm2net.encode import Point, encode_config, rat_str
from tm2net.gshift import Triple
from tm2net.machine import canonical_config, initial_config, run_tm, tm_step
from tm2net.nda import (
    CellRangeError,
    build_nda,
    build_partition,
    cell_of_point,
    derive_branch,
    nda_step,
    nda_to_json,
    orbit_rows,
    run_nda,
)

from util import random_config, random_machine


def in_cell_config(m, rng, triple):
    alpha = (triple.state, triple.left) + tuple(
        rng.choice(m.tape_symbols) for _ in range(rng.randint(0, 4)))
    beta = (triple.read,) + tuple(
        rng.choice(m.tape_symbols) for _ in range(rng.randint(0, 4)))
    return canonical_config(m, alpha, beta)


def test_partition_shape(flip):
    p = build_partition(flip)
    assert p.n_x_cells == 6
    assert p.n_y_cells == 3
    assert p.x_bounds == tuple(Fraction(i, 6) for i in range(7))
    assert p.y_bounds == tuple(Fraction(j, 3) for j in range(4))
    assert p.n_x_cells * p.n_y_cells == 18


def test_partition_cell_anchors(flip):
    p = build_partition(flip)
    i, _ = p.cell_of_triple(Triple("_", "q0", "_"))
    assert p.x_bounds[i] == 0
    _, j = p.cell_of_triple(Triple("_", "q0", "1"))
    assert p.y_bounds[j] == Fraction(2, 3)


def test_cell_triple_bijection(flip):
    p = build_partition(flip)
    seen = set()
    for x, q, z in product(flip.tape_symbols, flip.states, flip.tape_symbols):
        t = Triple(x, q, z)
        i, j = p.cell_of_triple(t)
        assert p.triple_of_cell(i, j) == t
        seen.add((i, j))
    assert seen == {(i, j) for i in range(6) for j in range(3)}


def test_right_move_branch(flip):
    br = derive_branch(flip, Triple("_", "q0", "0"))
    assert (br.lambda_x, br.a_x) == (Fraction(1, 3), Fraction(1, 3))
    assert (br.lambda_y, br.a_y) == (Fraction(3), Fraction(-1))
    assert br.action == ("q0", "1", "R")


def test_halt_branch_is_identity(flip):
    br = derive_branch(flip, Triple("0", "qH", "1"))
    assert br.is_identity
    assert br.action is None


def test_left_move_branch(flip):
    # oracle-validated parameters; x' = 3x - 1/2, y' = y/3 + 2/3
    br = derive_branch(flip, Triple("1", "q0", "_"))
    assert (br.lambda_x, br.a_x) == (Fraction(3), Fraction(-1, 2))
    assert (br.lambda_y, br.a_y) == (Fraction(1, 3), Fraction(2, 3))


def test_branch_matches_step_oracle_exhaustive():
    rng = random.Random(41)
    for _ in range(25):
        m = random_machine(rng)
        for x, q, z in product(m.tape_symbols, m.states, m.tape_symbols):
            triple = Triple(x, q, z)
            br = derive_branch(m, triple)
            for _ in range(5):
                c = in_cell_config(m, rng, triple)
                pt = encode_config(m, c)
                successor = c if q in m.halt_states else tm_step(m, c)
                assert br.apply(pt) == encode_config(m, successor)


def test_cell_of_point_examples(flip):
    p = build_partition(flip)
    assert cell_of_point(p, Point(Fraction(0), Fraction(0))) == \
        p.cell_of_triple(Triple("_", "q0", "_"))
    assert cell_of_point(p, Point(Fraction(1, 3), Fraction(5, 9))) == \
        p.cell_of_triple(Triple("1", "q0", "0"))


def test_cell_of_point_left_closed_boundaries(flip):
    p = build_partition(flip)
    for i in range(6):
        assert cell_of_point(p, Point(p.x_bounds[i], Fraction(0)))[0] == i


def test_cell_of_point_range_errors(flip):
    p = build_partition(flip)
    for bad in (Point(Fraction(1), Fraction(0)), Point(Fraction(0), Fraction(1)),
                Point(Fraction(-1, 2), Fraction(0))):
        with pytest.raises(CellRangeError):
            cell_of_point(p, bad)


def test_nda_step_examples(flip):
    auto = build_nda(flip)
    c0 = initial_config(flip, "01")
    pt0 = encode_config(flip, c0)
    assert pt0 == Point(Fraction(0), Fraction(5, 9))
    pt1 = nda_step(auto, pt0)
    assert pt1 == Point(Fraction(1, 3), Fraction(2, 3))
    assert pt1 == encode_config(flip, tm_step(flip, c0))
    pt2 = nda_step(auto, pt1)
    assert pt2 == encode_config(flip, tm_step(flip, tm_step(flip, c0)))
    halt_pt = encode_config(flip, run_tm(flip, c0, 10).final)
    assert nda_step(auto, halt_pt) == halt_pt


def test_commutes_with_machine_step():
    rng = random.Random(42)
    for _ in range(50):
        m = random_machine(rng)
        auto = build_nda(m)
        for _ in range(20):
            c = random_config(rng, m)
            pt = encode_config(m, c)
            if c.state in m.halt_states:
                assert nda_step(auto, pt) == pt
            else:
                assert nda_step(auto, pt) == encode_config(m, tm_step(m, c))


def test_cell_coherence():
    rng = random.Random(43)
    from tm2net.gshift import window
    for _ in range(50):
        m = random_machine(rng)
        p = build_partition(m)
        c = random_config(rng, m)
        assert cell_of_point(p, encode_config(m, c)) == \
            p.cell_of_triple(window(m, c))


def test_image_containment_for_valid_configs():
    rng = random.Random(44)
    for _ in range(100):
        m = random_machine(rng)
        auto = build_nda(m)
        c = random_config(rng, m)
        pt = nda_step(auto, encode_config(m, c))
        assert 0 <= pt.x < 1 and 0 <= pt.y < 1


def test_halt_cells_are_exactly_identity_branches():
    rng = random.Random(45)
    for _ in range(20):
        m = random_machine(rng)
        auto = build_nda(m)
        for br in auto.branches.values():
            assert br.is_identity == (br.triple.state in m.halt_states)


def test_full_trace_commutes(flip):
    auto = build_nda(flip)
    c0 = initial_config(flip, "0110")
    trace = run_tm(flip, c0, 20)
    orbit = run_nda(auto, encode_config(flip, c0), 20)
    assert orbit.halted == trace.halted
    assert len(orbit.points) == len(trace.configs)
    for c, pt in zip(trace.configs, orbit.points):
        assert encode_config(flip, c) == pt


def test_run_nda_selects_each_cell_once(flip, monkeypatch):
    # the kernel selects cells by the integer floor shared with cell_of_point
    calls = []
    real = nda._cell
    monkeypatch.setattr(nda, "_cell", lambda nx, dx, ny, dy, *rest: calls.append(
        Point(Fraction(nx, dx), Fraction(ny, dy))) or real(nx, dx, ny, dy, *rest))
    orbit = run_nda(build_nda(flip), encode_config(flip, initial_config(flip, "0110")), 20)
    assert orbit.halted
    assert calls == list(orbit.points)


def test_json_export(flip):
    doc = nda_to_json(build_nda(flip))
    assert doc["n_q"] == 2 and doc["n_s"] == 3
    assert len(doc["cells"]) == 18
    assert doc["x_bounds"][0] == "0/1" and doc["x_bounds"][-1] == "1/1"
    assert "cell_order" in doc
    by_cell = {(c["i"], c["j"]): c for c in doc["cells"]}
    p = build_partition(flip)
    cell = by_cell[p.cell_of_triple(Triple("_", "q0", "0"))]
    assert cell["lambda_x"] == "1/3" and cell["a_y"] == "-1/1"
    assert cell["action"] == {"state": "q0", "write": "1", "move": "R"}
    halt_cell = by_cell[p.cell_of_triple(Triple("_", "qH", "_"))]
    assert halt_cell["action"] is None


def test_orbit_rows(flip):
    auto = build_nda(flip)
    orbit = run_nda(auto, encode_config(flip, initial_config(flip, "01")), 20)
    rows = orbit_rows(auto, orbit.points)
    assert rows[0] == {"step": 0, "x": "0/1", "y": "5/9", "cell_i": 0, "cell_j": 1}
    assert [r["step"] for r in rows] == list(range(4))


def test_kernel_follows_bb5_from_step_20000():
    # BB(5) from tm's configuration at step 20,000: for 2,000 steps the nda
    # and net kernels hold exactly the encodings of tm's configurations
    from functools import partial
    from pathlib import Path

    from tm2net.machine import Run, parse_machine, tm_successor
    from tm2net.network import build_network, initial_state, net_step

    text = (Path(__file__).resolve().parent.parent / "bench" / "machines" / "bb5.tm").read_text()
    m = parse_machine(text)
    auto = build_nda(m)
    net = build_network(auto)
    run = Run(partial(tm_successor, m), initial_config(m, ""), 22_000)
    s = state = None
    for t, c in enumerate(run):
        if t < 20_000:
            continue
        pt = encode_config(m, c)
        if s is None:
            s, state = auto.kernel.fit(pt)[1], initial_state(net, pt)
            assert pt.y.denominator.bit_length() > 200  # a wide tape
        else:
            s, state = nda.nda_successor(auto, s), net_step(net, state)
        assert s == auto.kernel.fit(pt)[1] and auto.kernel.point(s) == pt
        assert state.scaled == net.kernel.fit(pt)[1] and state.mcl == pt
    assert run.steps == 22_000 and not run.halted


def test_kernel_states_are_canonical_whatever_c():
    # equal points are equal states of one kernel, and equal keys across kernels
    rng = random.Random(47)
    for _ in range(20):
        m = random_machine(rng)
        kernel = build_nda(m).kernel
        wide, _ = kernel.fit(Point(Fraction(1, 7), Fraction(3, 11)))
        assert wide.c == (kernel.c[0] * 7, 11)
        pt = encode_config(m, random_config(rng, m))
        s, w = kernel.fit(pt)[1], wide.fit(pt)[1]
        assert kernel.point(s) == wide.point(w) == pt
        assert kernel.key(s) == wide.key(w)
        padded = (s[0] * m.n_symbols ** 3, s[1] + 3, s[2], s[3])  # three zero digits
        assert kernel.point(padded) == pt and kernel.fit(kernel.point(padded))[1] == s
