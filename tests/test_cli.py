import csv
import importlib
import importlib.util
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tm2net import cli, encode, gshift, machine, nda, network
from tm2net.cli import (
    EXIT_INPUT,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    compare_levels,
    first_divergence,
    main,
    parse_word,
    run_level,
)
from tm2net.encode import encode_config
from tm2net.machine import Config, initial_config, parse_machine, run_tm
from tm2net.nda import Branch, Nda, build_nda

from util import compare_per_step, random_input, random_machine


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_compile_net_prints_unit_count(flip_path, tmp_path, capsys):
    out = tmp_path / "net.json"
    assert main(["compile", str(flip_path), "--target", "net", "--out", str(out)]) == EXIT_OK
    assert "48 units" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["meta"]["n_q"] == 2
    assert len(doc["units"]) == 48


def test_compile_stub74_prints_259(stub74_path, tmp_path, capsys):
    out = tmp_path / "net.json"
    assert main(["compile", str(stub74_path), "--target", "net", "--out", str(out)]) == EXIT_OK
    assert "259 units" in capsys.readouterr().out


def test_compile_gs_dump(flip_path, tmp_path):
    out = tmp_path / "rules.tsv"
    assert main(["compile", str(flip_path), "--target", "gs", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].split("\t") == ["X", "q", "Z", "F", "G1", "G2", "G3"]
    assert len(lines) == 19


def test_compile_nda_json(flip_path, tmp_path):
    out = tmp_path / "nda.json"
    assert main(["compile", str(flip_path), "--target", "nda", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["cells"]) == 18


def test_compile_syntax_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("states q0\n")
    out = tmp_path / "x.json"
    assert main(["compile", str(bad), "--target", "net", "--out", str(out)]) == EXIT_INPUT
    assert "line 1" in capsys.readouterr().err


def test_missing_machine_file_exit_2(tmp_path, capsys):
    assert main(["info", str(tmp_path / "nope.tm")]) == EXIT_IO
    assert "cannot read" in capsys.readouterr().err


def test_unwritable_out_exit_2(flip_path, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main(["compile", str(flip_path), "--target", "net", "--out", str(out)]) == EXIT_IO
    assert "cannot write" in capsys.readouterr().err


def test_run_tm_report(flip_path, capsys):
    assert main(["run", str(flip_path), "01", "--level", "tm"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "steps: 3" in out
    assert "status: halted" in out
    assert "final tape: '10'" in out


def test_run_net_matches_tm(flip_path, capsys):
    assert main(["run", str(flip_path), "01", "--level", "net"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "steps: 3" in out and "final tape: '10'" in out


LOOP_TEXT = """\
states: q h
symbols: _ 1
input: 1
start: q
halt: h
delta: q _ -> q _ R
delta: q 1 -> q _ R
"""


def test_fixed_point_outside_a_halt_state_times_out_at_every_level(tmp_path, capsys):
    # the configuration stops changing after one step, in the non-halt
    # state q: the network sits at a fixed point, which is not a halt
    path = tmp_path / "loop.tm"
    path.write_text(LOOP_TEXT)
    reports = {}
    for level in cli.LEVELS:
        trace = tmp_path / f"{level}.csv"
        assert main(["run", str(path), "1", "--level", level, "--max-steps", "10",
                     "--format", "json", "--trace", str(trace)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        reports[level] = (doc["steps"], doc["halted"], doc["final_tape"],
                          doc["final_x"], doc["final_y"])
        # one row per reported step; the fixed point repeats to fill them
        rows = read_csv(trace)
        assert [int(r["step"]) for r in rows] == list(range(11))
        assert all(r.get("halted", "False") == "False" for r in rows)
    assert set(reports.values()) == {(10, False, "", "0/1", "0/1")}
    assert main(["compare", str(path), "1", "--max-steps", "10"]) == EXIT_OK
    assert "all levels agree over 10 steps (timeout)" in capsys.readouterr().out


# on "11" the float64 run stops 33 steps after the exact one
@pytest.mark.parametrize("word", ["01010101", "11"])
def test_run_float64_reports_the_float_run(flip, flip_path, capsys, word):
    assert main(["run", str(flip_path), word, "--level", "net",
                 "--mode", "float64", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    net = network.build_network(build_nda(flip))
    pt = encode_config(flip, initial_config(flip, word))
    trace = network.run_network(net, network.initial_state(net, pt, "float64"), 1000)
    assert (doc["steps"], doc["halted"]) == (trace.steps, trace.halted)
    assert list(doc["final_float"]) == list(trace.final.mcl)


def test_run_float64_names_a_fixed_point_not_a_halt(flip_path, tmp_path, capsys):
    # the float run stops at a fixed point, which outside a halt state (and
    # after a divergence anywhere) is no halt of the machine
    path = tmp_path / "loop.tm"
    path.write_text(LOOP_TEXT)
    for machine_path, word, status in ((path, "1", "fixed point"),
                                       (flip_path, "01", "fixed point"),
                                       (flip_path, "0101", "timeout")):
        argv = ["run", str(machine_path), word, "--level", "net", "--mode", "float64",
                "--max-steps", "3"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert f"status: {status}\n" in out and "status: halted" not in out
        assert main(argv + ["--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["halted"] == (status == "fixed point")


def test_run_float64_reports_divergence(flip_path, capsys):
    assert main(["run", str(flip_path), "01010101", "--level", "net",
                 "--mode", "float64", "--max-steps", "50"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "divergence from exact trace: step" in out


def test_run_json_format(flip_path, capsys):
    assert main(["run", str(flip_path), "01", "--level", "nda",
                 "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps"] == 3
    assert doc["final_x"] == "5/6" and doc["final_y"] == "1/3"


def test_run_csv_format(flip_path, capsys):
    assert main(["run", str(flip_path), "01", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("level,mode,steps")


def test_run_trace_files(flip_path, tmp_path):
    tm_csv = tmp_path / "tm.csv"
    main(["run", str(flip_path), "01", "--level", "tm", "--trace", str(tm_csv)])
    rows = read_csv(tm_csv)
    assert [r["state"] for r in rows] == ["q0", "q0", "q0", "qH"]
    assert rows[0]["y"] == "5/9"

    nda_csv = tmp_path / "nda.csv"
    main(["run", str(flip_path), "01", "--level", "nda", "--trace", str(nda_csv)])
    rows = read_csv(nda_csv)
    assert list(rows[0]) == ["step", "x", "y", "cell_i", "cell_j"]
    assert rows[0]["x"] == "0/1"

    net_csv = tmp_path / "net.csv"
    main(["run", str(flip_path), "01", "--level", "net", "--trace", str(net_csv)])
    rows = read_csv(net_csv)
    assert list(rows[0]) == ["step", "c_x", "c_y", "active_cell_i",
                             "active_cell_j", "halted"]
    assert rows[-1]["halted"] == "True"
    assert rows[1]["c_x"] == "1/3"


def test_run_builds_trace_rows_only_with_trace(flip_path, tmp_path, monkeypatch):
    def no_rows(*args):
        raise AssertionError("trace rows built without --trace")

    for module, name in ((cli, "_config_rows"), (nda, "orbit_rows"),
                         (network, "net_trace_rows")):
        monkeypatch.setattr(module, name, no_rows)
    for level, mode in (("tm", "exact"), ("gs", "exact"), ("nda", "exact"),
                        ("net", "exact"), ("net", "float64")):
        assert main(["run", str(flip_path), "01", "--level", level,
                     "--mode", mode]) == EXIT_OK
    with pytest.raises(AssertionError, match="without --trace"):
        main(["run", str(flip_path), "01", "--level", "net",
              "--trace", str(tmp_path / "net.csv")])


def test_run_timeout_reported_in_band(tmp_path, capsys):
    looper = tmp_path / "loop.tm"
    looper.write_text(
        "states: q0 qH\nsymbols: _ 0\ninput: 0\nstart: q0\nhalt: qH\n"
        "delta: q0 0 -> q0 0 R\ndelta: q0 _ -> q0 _ R\n"
    )
    assert main(["run", str(looper), "0", "--max-steps", "5"]) == EXIT_OK
    assert "status: timeout" in capsys.readouterr().out


def test_run_illegal_input_symbol(flip_path, capsys):
    assert main(["run", str(flip_path), "02"]) == EXIT_INPUT
    assert "not an input symbol" in capsys.readouterr().err


def test_compare_flip(flip_path, capsys):
    assert main(["compare", str(flip_path), "01", "--max-steps", "50"]) == EXIT_OK
    assert "all levels agree over 3 steps (halted)" in capsys.readouterr().out


def test_compare_empty_word(flip_path, capsys):
    assert main(["compare", str(flip_path), "", "--max-steps", "50"]) == EXIT_OK
    assert "all levels agree" in capsys.readouterr().out


def corrupt_branch(auto, cell):
    branch = auto.branches[cell]
    branches = dict(auto.branches)
    branches[cell] = Branch(branch.a_x + 1, branch.a_y, branch.lambda_x,
                            branch.lambda_y, branch.triple, branch.action)
    return Nda(auto.machine, auto.partition, branches)


def test_compare_detects_corrupted_branch(flip):
    # cell (0, 1) holds the very first step of FLIP on "01", so the
    # corrupted x offset shows up in the step-1 comparison
    auto = corrupt_branch(build_nda(flip), (0, 1))
    result = compare_levels(flip, ("0", "1"), 50, auto=auto)
    assert not result.ok
    step, ref, level, want, got = result.mismatch
    assert step == 1
    assert ref == "tm" and level in ("nda", "net")
    assert want != got


def test_compare_reports_a_gs_mismatch_with_both_points(flip, monkeypatch):
    # a shift that never moves: gs and tm part at step 1
    monkeypatch.setattr(cli.gshift, "gs_step", lambda g, c: c)
    c0 = initial_config(flip, ("0", "1"))
    result = compare_levels(flip, ("0", "1"), 50)
    assert not result.ok
    assert result.mismatch == (1, "tm", "gs",
                               encode_config(flip, run_tm(flip, c0, 1).final),
                               encode_config(flip, c0))


def test_compare_cli_rejects_a_negative_budget(flip_path, capsys):
    assert main(["compare", str(flip_path), "01", "--max-steps", "-1"]) == EXIT_INPUT
    assert "max_steps must be >= 0" in capsys.readouterr().err


def _fault_in_tm_step(monkeypatch):
    real = machine.tm_step

    def tm_step(m, c):  # writes 1 wherever the left tape reaches two cells
        out = real(m, c)
        return out if len(out.alpha) != 3 else Config(out.alpha[:1] + ("1",) + out.alpha[2:],
                                                      out.beta)
    monkeypatch.setattr(machine, "tm_step", tm_step)


def _fault_in_gs_step(monkeypatch):
    real = gshift.gs_step

    def gs_step(g, c):  # moves right without writing once the left tape has two cells
        return real(g, c) if len(c.alpha) != 3 else Config(c.alpha[:1] + c.beta[:1]
                                                           + c.alpha[1:], c.beta[1:])
    monkeypatch.setattr(gshift, "gs_step", gs_step)


def _fault_in_canonical_config(monkeypatch, forget_left=True):
    real = machine.canonical_config

    def canonical_config(m, alpha, beta):
        # shared by tm and gs: forgets a cell the head never reads again, or
        # rewrites one it reads two steps later
        c = real(m, alpha, beta)
        if forget_left:
            return c if len(c.alpha) < 3 else Config(c.alpha[:2], c.beta)
        if len(c.beta) != 4:
            return c
        return Config(c.alpha, c.beta[:2] + ({"0": "1"}.get(c.beta[2], "0"),) + c.beta[3:])
    for module in (machine, gshift):
        monkeypatch.setattr(module, "canonical_config", canonical_config)


def _corrupt_nda(flip):
    return {"auto": corrupt_branch(build_nda(flip), (2, 2))}


def _corrupt_net(flip):
    net = network.build_network(build_nda(flip))
    params = list(net.branch_params)
    (lam_x, a_x), y = params[2 * 3 + 2]  # cell (2, 2): q0 with 1 to the left, reading 1
    params[2 * 3 + 2] = ((lam_x, a_x - Fraction(1, 36)), y)
    return {"net": network.Network(net.n_q, net.n_s, net.states, net.symbols, net.h,
                                   tuple(params))}


@pytest.mark.parametrize("fault", ["tm_step", "gs_step", "canonical_config",
                                   "canonical_config_read_later", "nda_branch",
                                   "net_branch_params"])
def test_compare_reports_the_mismatch_of_the_per_step_compare(flip, monkeypatch, fault):
    inject = {}
    if fault == "tm_step":
        _fault_in_tm_step(monkeypatch)
    elif fault == "gs_step":
        _fault_in_gs_step(monkeypatch)
    elif fault.startswith("canonical_config"):
        _fault_in_canonical_config(monkeypatch, fault == "canonical_config")
    elif fault == "nda_branch":
        inject = _corrupt_nda(flip)
    else:
        inject = _corrupt_net(flip)
    word = tuple("0110101")
    want = compare_per_step(flip, word, 50, **inject)
    assert not want.ok and want.mismatch[0] > 0
    assert compare_levels(flip, word, 50, **inject) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_compare_equals_the_per_step_compare_on_random_branch_faults(seed):
    rng = random.Random(seed)
    m = random_machine(rng)
    word = random_input(rng, m, 8)
    auto = build_nda(m)
    cell = rng.choice(sorted(auto.branches))
    b = auto.branches[cell]
    branches = dict(auto.branches)
    branches[cell] = Branch(b.a_x, b.a_y + Fraction(rng.randint(1, 3), 7), b.lambda_x,
                            b.lambda_y, b.triple, b.action)
    bad = Nda(m, auto.partition, branches)
    assert compare_levels(m, word, 30, auto=bad) == compare_per_step(m, word, 30, auto=bad)


def test_a_passing_compare_encodes_a_constant_number_of_times(flip, monkeypatch):
    calls = []
    real = encode.encode_config

    def counted(m, c):
        calls.append(c)
        return real(m, c)
    for module in (cli, encode):
        monkeypatch.setattr(module, "encode_config", counted)
    counts = []
    for n in (10, 200):
        calls.clear()
        result = compare_levels(flip, ("0", "1") * n, 10 * n)
        assert result.ok and result.steps == 2 * n + 1
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


def test_compare_cli_exit_3_on_corruption(flip_path, monkeypatch, capsys):
    import tm2net.cli as cli_mod

    real_build = cli_mod.nda.build_nda

    def corrupted(m):
        return corrupt_branch(real_build(m), (0, 1))

    monkeypatch.setattr(cli_mod.nda, "build_nda", corrupted)
    assert main(["compare", str(flip_path), "01"]) == EXIT_MISMATCH
    assert "mismatch at step 1" in capsys.readouterr().err


def test_compare_random_suite_small():
    rng = random.Random(61)
    for _ in range(15):
        m = random_machine(rng)
        word = random_input(rng, m)
        assert compare_levels(m, word, 30).ok


def test_info_output(flip_path, capsys):
    assert main(["info", str(flip_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cells: 18, MCL: 2, BSL: 9, LTL: 36, bias: 1, total: 48" in out
    assert "h: 7/1" in out
    assert ("weights: 250 edges; values 1 and +-h/2, 3 distinct scale weights, "
            "8 distinct bias offsets, 6 distinct thresholds") in out


def test_info_stub74(stub74_path, capsys):
    assert main(["info", str(stub74_path)]) == EXIT_OK
    assert "total: 259" in capsys.readouterr().out


def test_outputs_deterministic(flip_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["compile", str(flip_path), "--target", "net", "--out", str(a)])
    main(["compile", str(flip_path), "--target", "net", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_parse_word_forms(flip):
    assert parse_word(flip, "01") == ("0", "1")
    assert parse_word(flip, "0 1") == ("0", "1")
    assert parse_word(flip, "0,1") == ("0", "1")
    assert parse_word(flip, "") == ()


def test_parse_word_multichar_symbols():
    m = parse_machine(
        "states: q0 qH\nsymbols: blank aa bb\ninput: aa bb\nstart: q0\nhalt: qH\n"
        "delta: q0 aa -> qH aa R\ndelta: q0 bb -> qH bb R\n"
        "delta: q0 blank -> qH blank R\n"
    )
    assert parse_word(m, "aa bb") == ("aa", "bb")
    assert parse_word(m, "aa") == ("aa",)


def test_run_nda_decodes_without_a_digit_bound(flip_path, monkeypatch, capsys):
    # no environment variable bounds the decode; termination is decided exactly
    monkeypatch.setenv("TM2NET_DIGIT_BOUND", "1")
    assert main(["run", str(flip_path), "0101", "--level", "nda"]) == EXIT_OK
    assert "final tape: '1010'" in capsys.readouterr().out


def test_run_level_rejects_float_for_symbolic_levels(flip):
    with pytest.raises(ValueError, match="float64 mode"):
        run_level(flip, ("0",), "tm", 10, mode="float64")


def test_first_divergence_none_for_identical():
    class T:
        def __init__(self, states):
            self.states = states

    a = T([network.NetState("float64", (0.5, 0.25))])
    b = T([network.NetState("float64", (0.5, 0.25))])
    assert first_divergence(a, b) is None


def test_span_tracer_names_resolve():
    # bench/spans.py wraps tm2net functions by name; a rename must not reach
    # the benchmark unnoticed
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.TRACED.items():
        source = importlib.import_module(f"tm2net.{module}")
        for name in names:
            assert callable(getattr(source, name, None)), f"tm2net.{module}.{name}"
