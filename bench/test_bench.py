"""Checks of the benchmark itself: its reference, workloads, counters and spans.

Run from the repository root with ``python3 -m pytest -q bench``.
The BB(5) test runs all 47,176,870 steps of the reference interpreter.
"""

import itertools
import json
import random
import sys

import pytest

from workloads import ROOT, SRC, WORKLOADS

sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from tm2net import cli, encode, machine  # noqa: E402

MACHINES = {name: reference.parse(w.machine.read_text()) for name, w in WORKLOADS.items()}


def test_bb5_champion_halts_after_known_steps_and_ones():
    result = reference.run(MACHINES["bb5-prefix"], "", 50_000_000)
    assert result.halted
    assert result.steps == 47_176_870
    assert reference.ones(result) == 4098


@pytest.mark.parametrize("digits", ["".join(p) for p in itertools.product("012345678", repeat=2)])
def test_counter_costs_2k_plus_2_steps_per_increment(digits):
    k, d = 2, 9
    value = int(digits, d)
    result = reference.run(MACHINES["counter-wide"], digits, 10_000)
    assert result.halted
    assert result.steps == (2 * k + 2) * (d ** k - value)
    assert result.alpha == ("H",) and result.beta == ("0", "0")


def test_flip_complements_the_word():
    rng = random.Random(7)
    for n in (0, 1, 2, 50):
        word = "".join(rng.choice("01") for _ in range(n))
        result = reference.run(MACHINES["flip-long"], word, n + 1)
        assert result.halted and result.steps == n + 1
        tape = "".join(reversed(result.alpha[1:])) + "".join(result.beta)
        assert tape == word.translate(str.maketrans("01", "10"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_matches_tm2net_machine_level(name):
    w = WORKLOADS[name]
    word = w.word(3)
    expected = reference.run(MACHINES[name], word, w.budget)
    m = machine.parse_machine(w.machine.read_text())
    trace = machine.run_tm(m, machine.initial_config(m, word), w.budget)
    assert (trace.steps, trace.halted) == (expected.steps, expected.halted)
    assert (trace.final.alpha, trace.final.beta) == (expected.alpha, expected.beta)
    assert tuple(encode.encode_config(m, trace.final)) == (expected.x, expected.y)


def test_verdicts_are_fixed_by_workload():
    verdicts = {name: reference.run(MACHINES[name], w.word(1), w.budget)
                for name, w in WORKLOADS.items()}
    assert verdicts["flip-long"].halted
    assert (verdicts["counter-wide"].halted, verdicts["counter-wide"].steps) == (True, 486)
    assert (verdicts["bb5-prefix"].halted, verdicts["bb5-prefix"].steps) == (False, 3000)


def test_only_flip_word_depends_on_seed():
    words = {name: {w.word(seed) for seed in range(5)} for name, w in WORKLOADS.items()}
    assert len(words["flip-long"]) == 5
    assert words["counter-wide"] == {"00"} and words["bb5-prefix"] == {""}
    assert WORKLOADS["flip-long"].word(11) == WORKLOADS["flip-long"].word(11)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_network_counters_repeat_and_ltl_dominates_counter_wide():
    w = WORKLOADS["counter-wide"]
    m = machine.parse_machine(w.machine.read_text())
    first, second = (layers.levels(m, tuple(w.word(0)), w.budget) for _ in range(2))
    assert {k: first[k] for k in run.COUNTS} == {k: second[k] for k in run.COUNTS}
    terms = [first[f"network.{p}.terms_per_step"] for p in ("bsl", "ltl", "mcl")]
    assert terms[1] >= 0.9 * sum(terms)
    assert first["network.ltl.fire_ratio"] < 0.01
    assert (first["network.units"], first["network.edges"]) == (853, 5598)


def test_tracer_self_times_add_up_and_unpatch_restores():
    w = WORKLOADS["flip-long"]
    original = machine.run_tm
    tracer = Tracer()
    tracer.patch()
    try:
        assert machine.run_tm is not original
        tracer.call("bench.run_tm", cli.main,
                    ["run", str(w.machine), "0110", "--level", "tm", "--format", "json"])
    finally:
        tracer.unpatch()
    assert machine.run_tm is original
    _, _, name, start, end = tracer.spans[0]
    assert name == "bench.run_tm"
    selves = tracer.self_times(0)
    assert selves["machine"] > 0 and selves["cli"] > 0
    assert sum(selves.values()) == pytest.approx(end - start)
    names = {span[2] for span in tracer.spans}
    assert {"cli.main", "machine.run_tm", "machine.tm_step", "encode.encode_config"} <= names
