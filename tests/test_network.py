import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tm2net import network
from tm2net.encode import Point, encode_config, rat_str
from tm2net.machine import initial_config, parse_machine, run_tm
from tm2net.nda import CellRangeError, build_nda, cell_of_point
from tm2net.network import (
    BSL_X,
    BSL_Y,
    LTL_X,
    LTL_Y,
    NetworkFormatError,
    _dense_sweep,
    active_cell,
    bsl_pattern,
    build_network,
    export_network,
    import_network,
    initial_state,
    is_halted,
    net_step,
    net_trace_rows,
    run_network,
    unit_count,
)

from util import corrupt, fraction_step, machine_with_sizes, random_input, random_machine


@pytest.fixture(scope="module")
def flip_net(flip):
    return build_network(build_nda(flip))


def ltl_input_sums(net, state):
    """B contribution per cell as the LTL units actually receive it."""
    half = net.h / 2
    sums = {}
    pattern = {u: state.values[u] for u in net._bsl_ids}
    for i in range(net.n_x_cells):
        for j in range(net.n_y_cells):
            tx, _ = net.ltl_ids(i, j)
            total = Fraction(0)
            for src, w in net._in_edges[tx]:
                if net.units[src].kind in (BSL_X, BSL_Y) and pattern[src]:
                    total += w
            sums[(i, j)] = total
    return sums


def test_unit_counts(flip_net, stub74):
    assert flip_net.n_units == 48
    assert build_network(build_nda(stub74)).n_units == 259
    assert unit_count(7, 4) == 259
    assert unit_count(2, 3) == 48


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5))
def test_unit_count_formula_property(n_q, n_s):
    m = machine_with_sizes(n_q, n_s)
    net = build_network(build_nda(m))
    assert net.n_units == 2 + n_s + n_s * n_q + 2 * n_s * n_s * n_q + 1
    kinds = [u.kind for u in net.units]
    assert kinds.count("mcl_x") == kinds.count("mcl_y") == 1
    assert kinds.count(BSL_X) == n_q * n_s and kinds.count(BSL_Y) == n_s
    assert kinds.count(LTL_X) == kinds.count(LTL_Y) == n_q * n_s * n_s
    assert kinds.count("bias") == 1


def test_bsl_thresholds(flip_net):
    bias = flip_net.bias_id
    got = [-flip_net.weight(bias, flip_net.bsl_x_id(i)) for i in range(6)]
    assert got == [Fraction(i, 6) for i in range(6)]
    got_y = [-flip_net.weight(bias, flip_net.bsl_y_id(j)) for j in range(3)]
    assert got_y == [Fraction(j, 3) for j in range(3)]


def test_h_is_minimal_bias(flip_net, flip):
    auto = build_nda(flip)
    peak = max(max(b.a_x + b.lambda_x, b.a_y + b.lambda_y)
               for b in auto.branches.values())
    assert flip_net.h == 2 * peak == 7


def test_net_step_matches_nda(flip, flip_net):
    auto = build_nda(flip)
    s = initial_state(flip_net, Point(Fraction(0), Fraction(5, 9)))
    s1 = net_step(flip_net, s)
    assert s1.mcl == (Fraction(1, 3), Fraction(2, 3))
    assert active_cell(flip_net, s1) == cell_of_point(auto.partition,
                                                      Point(Fraction(0), Fraction(5, 9)))


def test_halted_point_is_fixed(flip, flip_net):
    final = run_tm(flip, initial_config(flip, "01"), 10).final
    s = initial_state(flip_net, encode_config(flip, final))
    assert net_step(flip_net, s).mcl == s.mcl
    assert is_halted(flip_net, s)


def test_bsl_staircase(flip, flip_net):
    c0 = initial_config(flip, "011")
    s = net_step(flip_net, initial_state(flip_net, encode_config(flip, c0)))
    cx = Fraction(0)  # the MCL value the BSL saw when it fired
    pattern = bsl_pattern(flip_net, s)
    x_part, y_part = pattern[:6], pattern[6:]
    assert x_part == tuple(1 if cx >= Fraction(i, 6) else 0 for i in range(6))
    assert all(a >= b for a, b in zip(x_part, x_part[1:]))
    assert all(a >= b for a, b in zip(y_part, y_part[1:]))


def test_b_sum_trichotomy_and_selection(flip, flip_net):
    auto = build_nda(flip)
    c0 = initial_config(flip, "0110")
    pt = encode_config(flip, c0)
    s = initial_state(flip_net, pt)
    h = flip_net.h
    for _ in range(6):
        nxt = net_step(flip_net, s)
        sums = ltl_input_sums(flip_net, nxt)
        in_cell = cell_of_point(auto.partition, Point(s.values[0], s.values[1]))
        for cell, b in sums.items():
            assert b in (h, h / 2, 0)
            assert (b == h) == (cell == in_cell)
        s = nxt


def test_one_hot_ltl(flip, flip_net):
    c0 = initial_config(flip, "10")
    s = initial_state(flip_net, encode_config(flip, c0))
    for _ in range(4):
        s = net_step(flip_net, s)
        positive = {flip_net.units[u].cell
                    for u in flip_net._ltl_ids if s.values[u] > 0}
        assert len(positive) <= 1


def test_all_ltl_zero_when_image_is_origin():
    text = (
        "states: qa qb qH\nsymbols: _ x\ninput: x\nstart: qb\nhalt: qH\n"
        "delta: qa _ -> qH _ R\n"
        "delta: qa x -> qH x R\n"
        "delta: qb _ -> qa _ R\n"
        "delta: qb x -> qH x R\n"
    )
    m = parse_machine(text)
    net = build_network(build_nda(m))
    s0 = initial_state(net, encode_config(m, initial_config(m, "")))
    assert s0.mcl == (Fraction(1, 3), Fraction(0))
    s1 = net_step(net, s0)
    # ([qb], []) steps to ([qa], []), which encodes to the origin: every LTL
    # unit lands exactly at 0 and the MCL correctly becomes (0, 0)
    assert s1.mcl == (Fraction(0), Fraction(0))
    assert all(s1.values[u] == 0 for u in net._ltl_ids)
    s2 = net_step(net, s1)
    assert s2.mcl == (Fraction(2, 3), Fraction(0))


def test_is_halted_examples(flip, flip_net):
    c0 = initial_config(flip, "01")
    s = initial_state(flip_net, encode_config(flip, c0))
    assert not is_halted(flip_net, s)
    trace = run_network(flip_net, s, 10)
    assert trace.halted and trace.steps == 3
    assert is_halted(flip_net, trace.final)


def test_immediate_halt_network():
    m = parse_machine("states: qH\nsymbols: _ 0\ninput: 0\nstart: qH\nhalt: qH\n")
    net = build_network(build_nda(m))
    s = initial_state(net, encode_config(m, initial_config(m, "")))
    assert is_halted(net, s)
    trace = run_network(net, s, 5)
    assert trace.states == (s,) and trace.halted


def test_run_network_matches_tm_trace(flip, flip_net):
    c0 = initial_config(flip, "01")
    tm_trace = run_tm(flip, c0, 50)
    net_trace = run_network(flip_net, initial_state(flip_net, encode_config(flip, c0)), 50)
    assert net_trace.halted
    assert len(net_trace.states) == len(tm_trace.configs)
    for c, s in zip(tm_trace.configs, net_trace.states):
        assert encode_config(flip, c) == Point(s.values[0], s.values[1])


def test_run_network_zero_steps(flip, flip_net):
    s = initial_state(flip_net, encode_config(flip, initial_config(flip, "01")))
    trace = run_network(flip_net, s, 0)
    assert trace.states == (s,)
    assert not trace.halted


def test_float_mode_diverges_but_still_halts(flip, flip_net):
    pt = encode_config(flip, initial_config(flip, "01010101"))
    exact = run_network(flip_net, initial_state(flip_net, pt), 50)
    fl = run_network(flip_net, initial_state(flip_net, pt, "float64"), 50)
    assert fl.halted
    diverged = [
        t for t, (se, sf) in enumerate(zip(exact.states, fl.states))
        if (float(se.values[0]), float(se.values[1])) != (sf.values[0], sf.values[1])
    ]
    assert diverged, "float64 run unexpectedly reproduced the exact orbit"


def test_exact_mode_types(flip, flip_net):
    s = initial_state(flip_net, encode_config(flip, initial_config(flip, "01")))
    s = net_step(flip_net, s)
    assert isinstance(s.values[0], Fraction)


def assert_sparse_matches_dense(net, state):
    """One exact step equals the dense exact sweep on the whole vector."""
    nxt = net_step(net, state)
    dense = _dense_sweep(net, state.values, exact=True)
    assert nxt.values == dense
    assert [type(v) for v in nxt.values] == [type(v) for v in dense]
    return nxt


def in_unit_square(state):
    return all(0 <= v <= 1 for v in state.mcl)


@settings(max_examples=40, deadline=None)
# random_machine(Random(0)) has a 12 x 3 grid: MCLs on its grid lines and at
# x = 1 or y = 1, where the corner is the axis' last cell
@example(random.Random(0), Fraction(5, 12), Fraction(1, 3))
@example(random.Random(0), Fraction(0), Fraction(2, 3))
@example(random.Random(0), Fraction(1), Fraction(1, 3))
@example(random.Random(0), Fraction(7, 12), Fraction(1))
@example(random.Random(0), Fraction(1), Fraction(1))
@given(st.randoms(use_true_random=False),
       st.fractions(min_value=0, max_value=1, max_denominator=60),
       st.fractions(min_value=0, max_value=1, max_denominator=60))
def test_sparse_step_matches_dense_sweep(rng, x, y):
    m = random_machine(rng)
    net = build_network(build_nda(m))
    s = initial_state(net, encode_config(m, initial_config(m, random_input(rng, m))))
    for _ in range(12):
        s = assert_sparse_matches_dense(net, s)
    # off the encoded configurations the step stays equal while the MCL
    # stays in the unit square
    s = initial_state(net, Point(x, y))
    for _ in range(4):
        if not in_unit_square(s):
            break
        s = assert_sparse_matches_dense(net, s)


def tight_ltl_unit(net):
    """An LTL unit with a + lambda = h/2, which exists because h is minimal."""
    def a_plus_lambda(t):
        mcl = 0 if net.units[t].kind == LTL_X else 1
        return net.weight(net.bias_id, t) + net.h + net.weight(mcl, t)

    return next(t for t in net._ltl_ids if a_plus_lambda(t) == net.h / 2)


def with_offset(net, t, delta):
    """A directly constructed copy of ``net`` with LTL unit t's a moved by delta."""
    i, j = net.units[t].cell
    axis = 0 if net.units[t].kind == LTL_X else 1
    params = [list(cell) for cell in net.branch_params]
    lam, a = params[i * net.n_s + j][axis]
    params[i * net.n_s + j][axis] = (lam, a + delta)
    return dataclasses.replace(net, branch_params=tuple(map(tuple, params)))


def test_constructor_rejects_a_plus_lambda_above_half_h(flip_net):
    # any raise would let the tight unit fire away from its staircase corner
    with pytest.raises(NetworkFormatError, match=r"0 < lambda and a \+ lambda <= h/2"):
        with_offset(flip_net, tight_ltl_unit(flip_net), Fraction(1, 10**9))


def test_certified_step_follows_the_weights(flip_net):
    # a lowered offset keeps the bounds; at its own corner the unit is now
    # clipped to 0 by the ramp
    t = tight_ltl_unit(flip_net)
    net = with_offset(flip_net, t, -flip_net.h)
    i, j = flip_net.units[t].cell
    s = initial_state(net, Point(Fraction(i, net.n_x_cells), Fraction(j, net.n_y_cells)))
    s = assert_sparse_matches_dense(net, s)
    assert s.values[t] == 0
    for _ in range(3):
        if not in_unit_square(s):
            break
        s = assert_sparse_matches_dense(net, s)


@pytest.mark.parametrize("x, y", [(Fraction(3, 2), Fraction(0)),
                                  (Fraction(1, 2), Fraction(-1, 9))])
def test_exact_step_rejects_mcl_outside_unit_square(flip_net, x, y):
    with pytest.raises(ValueError, match=r"outside \[0, 1\]\^2"):
        net_step(flip_net, initial_state(flip_net, Point(x, y)))


def test_exact_run_and_rows_build_no_activation_vector(flip):
    net = build_network(build_nda(flip))
    c0 = initial_config(flip, "0110")
    trace = run_network(net, initial_state(net, encode_config(flip, c0)), 50)
    net_trace_rows(net, trace)
    assert all(s._values is None for s in trace.states)
    # nor the weight dict or the edge table
    assert "weights" not in vars(net) and "_in_edges" not in vars(net)
    assert trace.states[1].values[0] == trace.states[1].mcl[0]


def test_weights_beyond_float64_run_exactly_and_fail_in_float64(flip, flip_net):
    net = dataclasses.replace(flip_net, h=Fraction(10**400))
    pt = encode_config(flip, initial_config(flip, "01"))
    exact = run_network(net, initial_state(net, pt), 50)
    want = run_network(flip_net, initial_state(flip_net, pt), 50)
    assert exact.halted and [s.mcl for s in exact.states] == [s.mcl for s in want.states]
    with pytest.raises(NetworkFormatError, match="float64 range"):
        net_step(net, initial_state(net, pt, "float64"))


def test_export_round_trip(flip_net, stub74):
    doc = export_network(flip_net)
    assert doc["meta"]["h"] == "7/1"
    assert len(doc["units"]) == 48
    # build and import share one wiring; the round trip holds for any machine
    rng = random.Random(19)
    nets = [flip_net, build_network(build_nda(stub74))]
    nets += [build_network(build_nda(random_machine(rng))) for _ in range(6)]
    for net in nets:
        clone = import_network(json.loads(json.dumps(export_network(net))))
        assert clone == net
        assert clone.h == net.h


def json_paths(node, path=()):
    """(path, node) of every node below the root of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from json_paths(child, path + (key,))


JSON_VALUES = st.one_of(
    st.none(), st.integers(), st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


class Draws:
    """Fixed values standing in for ``st.data()`` in an ``@example``."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


@settings(max_examples=150, deadline=None)
# lambda = 1/2 on flip's first MCL x -> LTL x edge: within the bounds, but no
# lambda of the construction, so no kernel could step it
@example(data=Draws("replace", ("weights", 6, "value"), "1/2"))
@given(st.data())
def test_import_rejects_or_certifies_any_mutated_document(flip_net, data):
    doc = json.loads(json.dumps(export_network(flip_net)))
    kind = data.draw(st.sampled_from(["replace", "delete", "append", "duplicate"]))
    if kind in ("append", "duplicate"):
        weights = doc["weights"]
        entry = data.draw(st.sampled_from(weights)) if kind == "duplicate" else {
            "from": data.draw(st.integers(-1, 48)),
            "to": data.draw(st.integers(-1, 48)),
            "value": str(data.draw(st.fractions(-8, 8, max_denominator=12))),
        }
        weights.append(dict(entry))
    else:
        paths = [p for p, node in json_paths(doc)
                 if (not isinstance(node, (dict, list)) if kind == "replace"
                     else isinstance(p[-1], str))]
        *parents, key = data.draw(st.sampled_from(paths))
        parent = doc
        for step in parents:
            parent = parent[step]
        if kind == "replace":
            parent[key] = data.draw(JSON_VALUES)
        else:
            del parent[key]
    try:
        net = import_network(doc)
    except NetworkFormatError:
        return
    net_step(net, initial_state(net, Point(Fraction(1, 2), Fraction(1, 2))))


def test_import_rejects_wrong_unit_count(flip_net):
    doc = export_network(flip_net)
    doc["units"].append({"id": 48, "kind": "mcl_x", "activation": "ramp"})
    with pytest.raises(NetworkFormatError, match="unit count"):
        import_network(doc)


def test_import_rejects_layout_deviation(flip_net):
    doc = export_network(flip_net)
    doc["units"][0]["kind"] = "mcl_y"  # three mcl_y units, zero mcl_x
    with pytest.raises(NetworkFormatError):
        import_network(doc)


def test_import_rejects_off_set_weight(flip_net):
    doc = export_network(flip_net)
    for entry in doc["weights"]:
        src, dst = entry["from"], entry["to"]
        if src == 0 and flip_net.units[dst].kind == BSL_X:
            entry["value"] = "2/1"
            break
    with pytest.raises(NetworkFormatError, match="!= required"):
        import_network(doc)


def test_import_rejects_tampered_bsl_ltl_weight(flip_net):
    doc = export_network(flip_net)
    for entry in doc["weights"]:
        src, dst = entry["from"], entry["to"]
        if (flip_net.units[src].kind == BSL_X
                and flip_net.units[dst].kind in (LTL_X, LTL_Y)):
            entry["value"] = "7/3"
            break
    with pytest.raises(NetworkFormatError):
        import_network(doc)


def test_import_rejects_extra_edge(flip_net):
    doc = export_network(flip_net)
    doc["weights"].append({"from": 0, "to": 1, "value": "1/1"})
    with pytest.raises(NetworkFormatError, match="outside the permitted"):
        import_network(doc)


@pytest.mark.parametrize("edit", ["lambda_not_positive", "a_plus_lambda_above_half_h"])
def test_import_rejects_branch_parameters_outside_the_architecture(flip_net, edit):
    # the wiring is rebuilt from the document's own (lambda, a), so only
    # these bounds can reject such an edit
    t = tight_ltl_unit(flip_net)
    mcl = 0 if flip_net.units[t].kind == LTL_X else 1
    src, value = {"lambda_not_positive": (mcl, Fraction(-1, 3)),
                  "a_plus_lambda_above_half_h": (
                      flip_net.bias_id, flip_net.weight(flip_net.bias_id, t) + Fraction(1, 10**9)),
                  }[edit]
    doc = export_network(flip_net)
    entry = next(e for e in doc["weights"] if (e["from"], e["to"]) == (src, t))
    entry["value"] = rat_str(value)
    with pytest.raises(NetworkFormatError, match=r"0 < lambda and a \+ lambda <= h/2"):
        import_network(doc)


def test_import_checks_unit_count_before_building_the_layout(monkeypatch):
    def no_layout(n_q, n_s):
        raise AssertionError(f"built the {n_q} x {n_s} layout")

    monkeypatch.setattr(network, "_layout_units", no_layout)
    doc = {
        "meta": {"n_q": 50, "n_s": 50, "h": "2/1",
                 "states": [f"q{i}" for i in range(50)],
                 "symbols": [f"s{i}" for i in range(50)]},
        "units": [],
        "weights": [],
    }
    with pytest.raises(NetworkFormatError, match="unit count 0"):
        import_network(doc)


def test_import_rejects_malformed_document():
    with pytest.raises(NetworkFormatError):
        import_network({"meta": {}})


def test_import_rejects_h_outside_the_wire_format(flip_net):
    # parsed as a Fraction this exponent alone would take seconds
    doc = export_network(flip_net)
    doc["meta"]["h"] = "1e4000000"
    with pytest.raises(NetworkFormatError, match="malformed network document"):
        import_network(doc)


def test_trace_rows(flip, flip_net):
    c0 = initial_config(flip, "01")
    trace = run_network(flip_net, initial_state(flip_net, encode_config(flip, c0)), 50)
    rows = net_trace_rows(flip_net, trace)
    assert rows[0]["c_x"] == "0/1" and rows[0]["c_y"] == "5/9"
    assert rows[0]["active_cell_i"] == ""  # nothing fired before the first sweep
    assert rows[1]["active_cell_i"] == 0 and rows[1]["active_cell_j"] == 1
    assert [r["halted"] for r in rows] == [False, False, False, True]


def test_trace_rows_float(flip, flip_net):
    pt = encode_config(flip, initial_config(flip, "01"))
    trace = run_network(flip_net, initial_state(flip_net, pt, "float64"), 50)
    rows = net_trace_rows(flip_net, trace)
    assert rows[0]["c_y"] == f"{float(Fraction(5, 9)):.17g}"


def test_degenerate_error_is_unreachable_for_valid_machines():
    # every machine has at least the identity branch with a + lambda = 1
    rng = random.Random(51)
    for _ in range(10):
        m = random_machine(rng)
        net = build_network(build_nda(m))
        assert net.h >= 2


@settings(max_examples=60, deadline=None)
# random_machine(Random(0)) has a 12 x 3 grid: a start off the lattice and
# each corrupted offset
@example(random.Random(0), Fraction(5, 7), Fraction(11, 60), "none")
@example(random.Random(0), Fraction(1, 2), Fraction(1, 3), "k/7")
@example(random.Random(0), Fraction(0), Fraction(0), "-1/36")
@example(random.Random(0), Fraction(1), Fraction(1), "+1")
@example(random.Random(0), Fraction(1, 12), Fraction(2, 3), "-h")
@given(st.randoms(use_true_random=False),
       st.fractions(min_value=0, max_value=1, max_denominator=60),
       st.fractions(min_value=0, max_value=1, max_denominator=60),
       st.sampled_from(["none", "k/7", "-1/36", "+1", "-h"]))
def test_kernel_steps_equal_the_fraction_oracle_and_the_dense_sweep(rng, x, y, fault):
    # every step of the scaled-integer kernel, nda and net, on encoded and
    # off-lattice starts and on corrupted offsets
    m = random_machine(rng)
    auto = build_nda(m)
    auto = corrupt(auto, rng, fault, build_network(auto).h)
    net = build_network(auto)  # its h covers the corrupted offset
    starts = [encode_config(m, initial_config(m, random_input(rng, m))), Point(x, y)]
    for pt in starts:
        for kernel, closed in ((auto.kernel, False), (net.kernel, True)):
            kernel, s = kernel.fit(pt)
            want = pt
            for _ in range(10):
                try:
                    want = fraction_step(auto, want, closed)
                except CellRangeError:
                    with pytest.raises(CellRangeError):
                        kernel.step(s, closed)
                    break
                s = kernel.step(s, closed)[1]
                # the state is the point, in canonical form
                assert kernel.point(s) == want and s == kernel.fit(want)[1]
        state = initial_state(net, pt)
        for _ in range(10):
            if not in_unit_square(state):
                break
            state = assert_sparse_matches_dense(net, state)


def test_exact_state_floats_are_the_rounded_fractions(flip, flip_net):
    # int / int is correctly rounded, as float() of a Fraction is
    pt = encode_config(flip, initial_config(flip, "01" * 700))
    assert pt.y.denominator.bit_length() >= 2000
    trace = run_network(flip_net, initial_state(flip_net, pt), 40)
    assert trace.states[0].scaled[2].bit_length() >= 2000
    for s in trace.states:
        assert s.floats == (float(s.mcl[0]), float(s.mcl[1]))
    rng = random.Random(5)
    for bits in (2000, 3000, 5000):
        d = 2 * 3 ** (bits * 2 // 3)
        v = Point(Fraction(rng.randrange(d), d), Fraction(rng.randrange(d), d))
        s = initial_state(flip_net, v)
        assert s.floats == (float(v.x), float(v.y))


def test_exact_states_equal_and_hash_by_their_mcl(flip, flip_net):
    s = initial_state(flip_net, encode_config(flip, initial_config(flip, "0110")))
    for _ in range(3):
        s = net_step(flip_net, s)
        fresh = initial_state(flip_net, s.mcl)
        assert s.corner is not None and fresh.corner is None
        assert s == fresh and hash(s) == hash(fresh)
        assert s != net_step(flip_net, s)
    # a state of a kernel widened for a point off the lattice
    wide = initial_state(flip_net, Point(Fraction(1, 7), Fraction(1, 5)))
    same = initial_state(flip_net, Point(Fraction(2, 3), Fraction(1, 3)))
    assert wide.kernel.c != same.kernel.c
    other, s = wide.kernel.fit(same.mcl)
    assert other is wide.kernel and s != same.scaled
    assert other.key(s) == same.kernel.key(same.scaled)


def test_constructor_accepts_only_the_constructions_lambda_pairs(flip_net):
    params = list(flip_net.branch_params)
    (lam_x, a_x), y = params[4]
    for lam in (Fraction(1, 2), Fraction(1, 9), Fraction(2)):
        params[4] = ((lam, a_x), y)
        with pytest.raises(NetworkFormatError, match=r"cell \(1, 1\): lambda pair"):
            dataclasses.replace(flip_net, branch_params=tuple(params))
