"""Command-line driver for the whole pipeline.

Subcommands::

    tm2net compile MACHINE --target gs|nda|net --out PATH
    tm2net run     MACHINE WORD --level tm|gs|nda|net [--mode exact|float64]
                   [--max-steps N] [--trace PATH] [--format text|json|csv]
    tm2net compare MACHINE WORD [--max-steps N]
    tm2net info    MACHINE

Exit codes: 0 success, 1 input error (parse/validation), 2 I/O failure,
3 semantic mismatch from ``compare``.  Timeouts are reported in-band.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from dataclasses import dataclass
from functools import partial

from . import encode, gshift, machine, nda, network
from .encode import EncodingError, Point, encode_config, rat_str
from .machine import MachineError, Run, TuringMachine, initial_config, tape_string
from .network import NetworkFormatError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IO = 2
EXIT_MISMATCH = 3


@dataclass
class RunReport:
    """Outcome of one run at one level, with the decoded final configuration."""

    level: str
    mode: str
    steps: int
    halted: bool
    final_state: str
    final_tape: str
    final_alpha: tuple[str, ...]
    final_beta: tuple[str, ...]
    final_x: str  # num/den
    final_y: str  # num/den
    final_float: tuple[float, float] | None = None
    divergence_step: int | None = None


def parse_word(m: TuringMachine, text: str) -> tuple[str, ...]:
    """Input word from the command line.

    Whitespace- or comma-separated symbol names; a bare string is split
    into characters when every input symbol is a single character.
    """
    if not text:
        return ()
    if any(sep in text for sep in (" ", "\t", ",")):
        return tuple(tok for tok in text.replace(",", " ").split() if tok)
    if all(len(s) == 1 for s in m.input_symbols):
        return tuple(text)
    return (text,)


def _report_from_config(m, level, final_config, steps, max_steps) -> RunReport:
    """An exact run has halted exactly when its decoded ``final_config`` is in
    a halt state, and otherwise reports the whole budget: the network stops
    at any fixed point, which outside a halt state repeats for the rest of
    it."""
    halted = final_config.state in m.halt_states
    pt = encode_config(m, final_config)
    # the decoded configuration must re-encode to the reported point
    assert encode.decode_point(m, pt) == final_config
    return RunReport(level, "exact", steps if halted else max_steps, halted,
                     final_config.state, tape_string(m, final_config),
                     final_config.alpha, final_config.beta, rat_str(pt.x), rat_str(pt.y))


# Each level as an exact run drives it, built from the machine: (start, the
# initial configuration to the first state; successor; to_config, a state
# decoded; rows(states, halted), the ``--trace`` CSV rows).
def _config_level(m: TuringMachine, successor) -> tuple:
    return (lambda c: c), successor, (lambda c: c), (
        lambda configs, halted: _config_rows(m, configs))


def _nda_level(m: TuringMachine) -> tuple:
    # states of the nda's kernel, where every encoded configuration has one
    auto = nda.build_nda(m)
    return (lambda c: auto.kernel.fit(encode_config(m, c))[1],
            partial(nda.nda_successor, auto),
            lambda s: encode.decode_point(m, auto.kernel.point(s)),
            lambda states, halted: nda.orbit_rows(auto, map(auto.kernel.point, states)))


def _net_level(m: TuringMachine) -> tuple:
    net = network.build_network(nda.build_nda(m))
    return (lambda c: network.initial_state(net, encode_config(m, c)),
            partial(network.net_successor, net),
            lambda s: encode.decode_point(m, Point(*s.mcl)),
            lambda states, halted: network.net_trace_rows(
                net, network.NetTrace(states, halted)))


LEVELS = {
    "tm": lambda m: _config_level(m, partial(machine.tm_successor, m)),
    "gs": lambda m: _config_level(m, partial(gshift.gs_successor, gshift.build_gshift(m))),
    "nda": _nda_level,
    "net": _net_level,
}


def run_level(m: TuringMachine, word, level: str, max_steps: int,
              mode: str = "exact"):
    """Run one pipeline level; returns (RunReport, rows).  An exact run keeps
    only its current state; ``rows`` is a function that replays the run to
    build the per-step CSV rows, so a run without a trace file never pays
    for them or keeps its history."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    if mode == "float64" and level != "net":
        raise ValueError("float64 mode exists only at level net")
    c0 = initial_config(m, word)

    if mode == "float64":
        net = network.build_network(nda.build_nda(m))
        pt0 = encode_config(m, c0)
        exact_trace = network.run_network(net, network.initial_state(net, pt0), max_steps)
        float_trace = network.run_network(
            net, network.initial_state(net, pt0, "float64"), max_steps)
        final = encode.decode_point(m, Point(*exact_trace.final.mcl))
        # a float64 run reports its own steps and fixed point
        report = dataclasses.replace(
            _report_from_config(m, level, final, exact_trace.steps, max_steps),
            mode="float64", steps=float_trace.steps, halted=float_trace.halted,
            final_float=float_trace.final.mcl,
            divergence_step=first_divergence(exact_trace, float_trace))
        return report, lambda: network.net_trace_rows(net, float_trace)

    start, successor, to_config, level_rows = LEVELS[level](m)
    run = Run(successor, start(c0), max_steps)
    for _ in run:
        pass
    report = _report_from_config(m, level, to_config(run.final), run.steps, max_steps)

    def rows():
        states = tuple(run)
        # a fixed point outside a halt state repeats for the rest of the budget
        states += states[-1:] * (report.steps + 1 - len(states))
        return level_rows(states, report.halted)

    return report, rows


def _config_rows(m: TuringMachine, configs) -> list[dict]:
    """CSV rows of a tm or gs trace: state, tape and encoded point per step."""
    rows = []
    for t, c in enumerate(configs):
        pt = encode_config(m, c)
        rows.append({"step": t, "state": c.state, "tape": tape_string(m, c),
                     "x": rat_str(pt.x), "y": rat_str(pt.y)})
    return rows


def first_divergence(exact_trace, float_trace) -> int | None:
    """First step where the float64 MCL differs bitwise from the rounded
    exact MCL; None if they agree over the shared prefix and lengths match."""
    shared = min(len(exact_trace.states), len(float_trace.states))
    for t in range(shared):
        if exact_trace.states[t].floats != float_trace.states[t].floats:
            return t
    if len(exact_trace.states) != len(float_trace.states):
        return shared
    return None


@dataclass
class CompareResult:
    ok: bool
    steps: int
    halted: bool
    mismatch: tuple[int, str, str, Point, Point] | None = None
    # (step, reference level, deviating level, reference point, other point)


def compare_levels(m: TuringMachine, word, max_steps: int,
                   auto: nda.Nda | None = None,
                   net: network.Network | None = None) -> CompareResult:
    """Run all four levels in lockstep (exact mode), keeping one state each,
    and compare every step: gs with tm on configurations, nda and net with
    tm's point, which follows tm's transitions (``encode.successor_point``)
    and must be the encoding of tm's last configuration.  If a check fails,
    a replay that encodes tm's every configuration names the first divergent
    step.  ``auto``/``net`` let tests inject corrupted systems.
    """
    tm_run = Run(partial(machine.tm_successor, m), initial_config(m, word), max_steps)
    auto = auto if auto is not None else nda.build_nda(m)
    systems = (m, tm_run, gshift.build_gshift(m), auto,
               net if net is not None else network.build_network(auto))
    mismatch, point = _lockstep(*systems,
                                lambda prev, pt, c: encode.successor_point(m, prev, pt))
    if mismatch is None and encode_config(m, tm_run.final) == point:
        return CompareResult(True, tm_run.steps, tm_run.halted)
    mismatch, _ = _lockstep(*systems, lambda prev, pt, c: encode_config(m, c))
    for _ in tm_run:  # the whole tm run gives the steps and the verdict
        pass
    return CompareResult(mismatch is None, tm_run.steps, tm_run.halted, mismatch)


def _lockstep(m, tm_run, gs, auto, net, reference):
    """Step gs, nda and net beside ``tm_run`` and compare every step, with
    ``reference(prev, pt, c)`` as tm's point at configuration ``c`` after
    ``prev`` at ``pt``; returns the first mismatch or None, and that point.
    nda and net step on kernel states, which are compared with tm's point
    without building a Fraction."""
    gs_c = tm_run.s0
    point = encode_config(m, gs_c)
    kernel, s = auto.kernel.fit(point)
    state = network.initial_state(net, point)
    for t, tm_c in enumerate(tm_run):
        if t:
            point = reference(prev, point, tm_c)
            gs_c = gshift.gs_step(gs, gs_c)
            s = kernel.step(s)[1]  # as nda_step: halt cells step too
            state = network.net_step(net, state)
        if gs_c != tm_c:  # both canonical, so equal exactly when their points are
            return (t, "tm", "gs", encode_config(m, tm_c), encode_config(m, gs_c)), point
        for level, k, got in (("nda", kernel, s), ("net", state.kernel, state.scaled)):
            if not k.equals(got, point):
                return (t, "tm", level, point, k.point(got)), point
        prev = tm_c
    return None, point


def _load_machine(path: str) -> TuringMachine:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc}") from exc
    return machine.parse_machine(text)


class _IOFailure(Exception):
    pass


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


def _write_csv(path: str, rows) -> None:
    """Rows as CSV, under the keys of the first row (a run has at least one)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_text(path, buf.getvalue())


def cmd_compile(args) -> int:
    m = _load_machine(args.machine)
    if args.target == "gs":
        _write_text(args.out, gshift.dump_rules(gshift.build_gshift(m)))
    elif args.target == "nda":
        doc = nda.nda_to_json(nda.build_nda(m))
        _write_text(args.out, json.dumps(doc) + "\n")
    else:
        net = network.build_network(nda.build_nda(m))
        doc = network.export_network(net)
        _write_text(args.out, json.dumps(doc) + "\n")
        print(f"{net.n_units} units")
    return EXIT_OK


def _print_report(report: RunReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(dataclasses.asdict(report), indent=2))
        return
    if fmt == "csv":
        d = dataclasses.asdict(report)
        d["final_alpha"] = " ".join(report.final_alpha)
        d["final_beta"] = " ".join(report.final_beta)
        if report.final_float is not None:
            d["final_float"] = f"{report.final_float[0]:.17g} {report.final_float[1]:.17g}"
        writer = csv.DictWriter(sys.stdout, fieldnames=list(d), lineterminator="\n")
        writer.writeheader()
        writer.writerow(d)
        return
    print(f"level: {report.level}")
    print(f"mode: {report.mode}")
    print(f"steps: {report.steps}")
    # a float run has diverged from the machine, so its stop is no halt
    stop = "fixed point" if report.mode == "float64" else "halted"
    print(f"status: {stop if report.halted else 'timeout'}")
    print(f"final state: {report.final_state}")
    print(f"final tape: {report.final_tape!r}")
    print(f"final point: x={report.final_x} y={report.final_y}")
    if report.final_float is not None:
        fx, fy = report.final_float
        print(f"final point (float64): x={fx:.17g} y={fy:.17g}")
    if report.mode == "float64":
        if report.divergence_step is None:
            print("divergence from exact trace: none")
        else:
            print(f"divergence from exact trace: step {report.divergence_step}")


def cmd_run(args) -> int:
    m = _load_machine(args.machine)
    word = parse_word(m, args.word)
    report, rows = run_level(m, word, args.level, args.max_steps, args.mode)
    if args.trace:
        _write_csv(args.trace, rows())
    _print_report(report, args.format)
    return EXIT_OK


def cmd_compare(args) -> int:
    m = _load_machine(args.machine)
    word = parse_word(m, args.word)
    result = compare_levels(m, word, args.max_steps)
    if result.ok:
        status = "halted" if result.halted else "timeout"
        print(f"all levels agree over {result.steps} steps ({status})")
        return EXIT_OK
    t, ref, level, want, got = result.mismatch
    print(
        f"mismatch at step {t} between {ref} and {level}: "
        f"{ref}=({rat_str(want.x)}, {rat_str(want.y)}) "
        f"{level}=({rat_str(got.x)}, {rat_str(got.y)})",
        file=sys.stderr,
    )
    return EXIT_MISMATCH


def cmd_info(args) -> int:
    m = _load_machine(args.machine)
    net = network.build_network(nda.build_nda(m))
    bsl_x, bsl_y, ltl = network._unit_ids(net.n_q, net.n_s)
    print(f"states: {m.n_states} ({' '.join(m.states)})")
    print(f"tape symbols: {m.n_symbols} ({' '.join(m.tape_symbols)}), blank: {m.blank}")
    print(f"cells: {len(ltl)}, MCL: 2, BSL: {len(bsl_x) + len(bsl_y)}, "
          f"LTL: {2 * len(ltl)}, bias: 1, total: {net.n_units}")
    print(f"h: {rat_str(net.h)}")
    lambdas = {lam for cell in net.branch_params for lam, _ in cell}
    offsets = {a - net.h for cell in net.branch_params for _, a in cell}
    # a BSL unit's threshold is its grid line; the last bound, 1, has none
    thresholds = {b for bounds in nda.grid_bounds(net.n_q, net.n_s) for b in bounds[:-1]}
    print(f"weights: {len(net.weights)} edges; values 1 and +-h/2, "
          f"{len(lambdas)} distinct scale weights, "
          f"{len(offsets)} distinct bias offsets, "
          f"{len(thresholds)} distinct thresholds")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tm2net",
        description="Compile Turing machines into generalized shifts, unit-square "
                    "affine maps, and threshold/ramp networks; run and cross-check "
                    "any level.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="write a compiled artifact")
    p.add_argument("machine", help="machine description file")
    p.add_argument("--target", choices=("gs", "nda", "net"), required=True)
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="run one level and report")
    p.add_argument("machine")
    p.add_argument("word", help="input word (symbols, or one token per character)")
    p.add_argument("--level", choices=LEVELS, default="tm")
    p.add_argument("--mode", choices=("exact", "float64"), default="exact")
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--trace", help="write the per-step trace CSV here")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run all levels in lockstep and compare")
    p.add_argument("machine")
    p.add_argument("word")
    p.add_argument("--max-steps", type=int, default=1000)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("info", help="print sizes, unit counts, h, weight summary")
    p.add_argument("machine")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MachineError, EncodingError, NetworkFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
