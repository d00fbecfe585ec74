"""Per-layer measurements, taken from outside tm2net's public functions.

Each function here times or counts the calls into one module on the
workload's own trajectory.  Times are medians per call unless a docstring
says otherwise; counts are exact and must repeat from run to run.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
import tracemalloc
from fractions import Fraction

from tm2net import cli, encode, gshift, machine, nda, network

clock = time.perf_counter
BUILDER_REPS = 3


def _timed(fn, *args):
    t0 = clock()
    result = fn(*args)
    return result, clock() - t0


def builders(text: str) -> dict:
    """Median seconds of each public builder, and of the JSON round trip."""
    times = {k: [] for k in ("machine.parse_s", "gshift.build_s", "nda.build_s",
                             "network.build_s", "network.export_s",
                             "network.import_s")}
    for _ in range(BUILDER_REPS):
        m, dt = _timed(machine.parse_machine, text)
        times["machine.parse_s"].append(dt)
        times["gshift.build_s"].append(_timed(gshift.build_gshift, m)[1])
        auto, dt = _timed(nda.build_nda, m)
        times["nda.build_s"].append(dt)
        net, dt = _timed(network.build_network, auto)
        times["network.build_s"].append(dt)
        t0 = clock()
        doc = json.dumps(network.export_network(net), indent=2)
        times["network.export_s"].append(clock() - t0)
        t0 = clock()
        network.import_network(json.loads(doc))
        times["network.import_s"].append(clock() - t0)
    return {k: statistics.median(v) for k, v in times.items()}


def _per_call_us(fn, inputs) -> float:
    """Median microseconds of ``fn(x)`` over ``inputs``."""
    times = []
    for x in inputs:
        t0 = clock()
        fn(x)
        times.append(clock() - t0)
    return statistics.median(times) * 1e6


def levels(m, word, budget: int) -> dict:
    """Step cost of every level, encode/decode cost and network counters.

    Each level is run once through its public ``run_*`` function; the step
    function is then timed on every state that run stepped from.
    """
    out = {}
    c0 = machine.initial_config(m, word)
    tr = machine.run_tm(m, c0, budget)
    out["machine.step_us"] = _per_call_us(lambda c: machine.tm_step(m, c),
                                          tr.configs[:tr.steps])
    g = gshift.build_gshift(m)
    gtr = gshift.run_gs(g, c0, budget)
    out["gshift.step_us"] = _per_call_us(lambda c: gshift.gs_step(g, c),
                                         gtr.configs[:gtr.steps])

    t0 = clock()
    for c in tr.configs:
        encode.encode_config(m, c)
    out["encode.encode_us"] = (clock() - t0) / len(tr.configs) * 1e6  # mean
    final = encode.encode_config(m, tr.final)
    out["encode.decode_us"] = _per_call_us(lambda pt: encode.decode_point(m, pt),
                                           [final] * 5)
    out["encode.point_bits"] = sum(v.numerator.bit_length() + v.denominator.bit_length()
                                   for v in final)

    auto = nda.build_nda(m)
    pt0 = encode.encode_config(m, c0)
    ntr = nda.run_nda(auto, pt0, budget)
    out["nda.step_us"] = _per_call_us(lambda pt: nda.nda_step(auto, pt),
                                      ntr.points[:ntr.steps])
    out["nda.cell_us"] = _per_call_us(lambda pt: nda.cell_of_point(auto.partition, pt),
                                      ntr.points)

    net = network.build_network(auto)
    exact = network.run_network(net, network.initial_state(net, pt0), budget)
    floats = network.run_network(net, network.initial_state(net, pt0, "float64"), budget)
    # run_network steps every stored state once, the last one to test for
    # the fixed point
    out["network.step_us"] = _per_call_us(lambda s: network.net_step(net, s),
                                          exact.states)
    out["network.float_step_us"] = _per_call_us(lambda s: network.net_step(net, s),
                                                floats.states)
    out.update(net_counters(net, exact.states))
    divergence = cli.first_divergence(exact, floats)
    out["network.float.divergence_step"] = -1 if divergence is None else divergence
    return out


def net_counters(net, states) -> dict:
    """Multiply-adds per phase and the LTL fire ratio over an exact trajectory.

    A term is an in-edge whose source is nonzero in the values its phase
    reads: BSL reads the old MCL, LTL the old MCL and the new BSL, MCL the
    new LTL.  These are exactly the products ``net_step`` computes.
    """
    incoming = {}
    for src, dst in net.weights:
        incoming.setdefault(dst, []).append(src)
    kinds = {u.id: u.kind for u in net.units}
    bsl = [u for u, k in kinds.items() if k in (network.BSL_X, network.BSL_Y)]
    ltl = [u for u, k in kinds.items() if k in (network.LTL_X, network.LTL_Y)]
    terms = {"bsl": 0, "ltl": 0, "mcl": 0}
    fired = 0
    steps = len(states) - 1
    for old, new in zip(states, states[1:]):
        read = list(new.values)
        read[0], read[1] = old.values[0], old.values[1]
        terms["bsl"] += sum(1 for u in bsl for s in incoming[u] if old.values[s])
        terms["ltl"] += sum(1 for u in ltl for s in incoming[u] if read[s])
        terms["mcl"] += sum(1 for u in (0, 1) for s in incoming[u] if new.values[s])
        fired += sum(1 for u in ltl if new.values[u] > 0)
    out = {f"network.{k}.terms_per_step": Fraction(v, max(steps, 1))
           for k, v in terms.items()}
    out["network.ltl.fire_ratio"] = Fraction(fired, max(steps, 1) * len(ltl))
    out["network.units"] = net.n_units
    out["network.edges"] = len(net.weights)
    return out


def trace_bytes(m, word, budget: int) -> dict:
    """tracemalloc peak of each level's whole run, one level at a time."""
    c0 = machine.initial_config(m, word)
    auto = nda.build_nda(m)
    net = network.build_network(auto)
    pt0 = encode.encode_config(m, c0)
    g = gshift.build_gshift(m)
    runs = {
        "machine.trace_bytes": lambda: machine.run_tm(m, c0, budget),
        "gshift.trace_bytes": lambda: gshift.run_gs(g, c0, budget),
        "nda.trace_bytes": lambda: nda.run_nda(auto, pt0, budget),
        "network.trace_bytes": lambda: network.run_network(
            net, network.initial_state(net, pt0), budget),
    }
    out = {}
    for name, run in runs.items():
        gc.collect()
        tracemalloc.start()
        try:
            run()
            out[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return out
