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
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from math import lcm

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
    cell_divergence_step: int | None = None


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
# decoded; rows(states, halted), the ``--trace`` CSV rows).  tm and gs step
# tapes, which are configurations only at the ends of a run.
def _tape_level(m: TuringMachine, successor) -> tuple:
    return machine.tape_of, successor, machine.config_of, (
        lambda tapes, halted: _config_rows(m, map(machine.config_of, tapes)))


def _nda_level(m: TuringMachine) -> tuple:
    # states of the nda's table, where every encoded configuration has one
    auto = nda.build_nda(m)
    return (lambda c: auto.table.fit(encode_config(m, c))[1],
            partial(nda.nda_successor, auto),
            lambda s: encode.decode_point(m, auto.table.point(s)),
            lambda states, halted: nda.orbit_rows(auto, map(auto.table.point, states)))


def _net_level(m: TuringMachine) -> tuple:
    net = network.build_network(nda.build_nda(m))
    return (lambda c: network.initial_state(net, encode_config(m, c)),
            partial(network.net_successor, net),
            lambda s: encode.decode_point(m, Point(*s.mcl)),
            lambda states, halted: network.net_trace_rows(
                net, machine.Trace(states, halted)))


LEVELS = {
    "tm": lambda m: _tape_level(m, partial(machine.tm_tape_step, m)),
    "gs": lambda m: _tape_level(m, partial(gshift.gs_tape_step, gshift.build_gshift(m))),
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
        float_trace = network.run_network(
            net, network.initial_state(net, pt0, "float64"), max_steps)
        run = Run(partial(network.net_successor, net), network.initial_state(net, pt0), max_steps)
        states = iter(run)  # kept one state past the float run, as far as first_divergence reads
        exact = machine.Trace(tuple(islice(states, len(float_trace.states) + 1)), False)
        for _ in states:
            pass
        final = encode.decode_point(m, Point(*run.final.mcl))
        # a float64 run reports its own steps and fixed point
        report = dataclasses.replace(
            _report_from_config(m, level, final, run.steps, max_steps),
            mode="float64", steps=float_trace.steps, halted=float_trace.halted,
            final_float=float_trace.final.mcl,
            divergence_step=first_divergence(exact, float_trace),
            cell_divergence_step=first_divergence(exact, float_trace, "corner"))
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


def first_divergence(exact_trace, float_trace, field: str = "floats") -> int | None:
    """First step where the runs' states differ in ``field``: the float64
    MCL bitwise from the rounded exact MCL, or with ``"corner"`` the BSL
    corner, the cell the sweep read; None if they agree over the shared
    prefix and lengths match."""
    shared = min(len(exact_trace.states), len(float_trace.states))
    for t in range(shared):
        if getattr(exact_trace.states[t], field) != getattr(float_trace.states[t], field):
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
    branch: tuple | None = field(default=None, compare=False)
    # the deviating level's (cell, ((lambda_x, a_x), (lambda_y, a_y))) on its
    # step into the mismatch; None for gs and at step 0


def compare_levels(m: TuringMachine, word, max_steps: int,
                   auto: nda.Nda | None = None,
                   net: network.Network | None = None) -> CompareResult:
    """Run all four levels in lockstep (exact mode), keeping one state each,
    and check every step in O(1) (``_agree``), with no Fraction built per
    step; tm's point, kept on integers along tm's transitions, must then be
    the encoding of tm's last configuration.  If a check fails, a replay
    (``_replay``) that decodes every level at every step names the first
    divergent step.  ``auto``/``net`` let tests inject corrupted systems.
    """
    tm_run = Run(partial(machine.tm_tape_step, m), machine.tape_of(initial_config(m, word)),
                 max_steps)
    auto = auto if auto is not None else nda.build_nda(m)
    systems = (m, tm_run, gshift.build_gshift(m), auto,
               net if net is not None else network.build_network(auto))
    digits = _agree(*systems)
    # equal integers are equal points; unequal ones leave the verdict to the replay
    if digits is not None and encode.config_digits(m, machine.config_of(tm_run.final)) == digits:
        return CompareResult(True, tm_run.steps, tm_run.halted)
    mismatch, branch = _replay(*systems)
    for _ in tm_run:  # the whole tm run gives the steps and the verdict
        pass
    return CompareResult(mismatch is None, tm_run.steps, tm_run.halted, mismatch, branch)


def _agree(m, tm_run, gs, auto, net):
    """Step gs, nda and net beside ``tm_run``'s tapes and check every step:
    gs's step of tm's previous tape against tm's tape (``same_cells``),
    which shares its tail, so gs runs as tm does exactly when every check
    holds; nda's and net's table states against tm's point on integers
    (``encode.successor_digits``) in the table's form, a tuple comparison.
    Returns tm's point on integers after the run, or None at the first
    failed check."""
    c0 = machine.config_of(tm_run.s0)
    point = encode_config(m, c0)
    table, s = auto.table.fit(point)
    state = network.initial_state(net, point)
    digits, prev = encode.config_digits(m, c0), None
    for tm_t in tm_run:
        if prev is not None:
            # powers of n_s depend on n_s alone: the table's cache serves tm's point
            digits = encode.successor_digits(m, gshift.tape_window(m, prev), digits,
                                             table.powers)
            gs_t = gshift.gs_tape_step(gs, prev)
            if gs_t is None or not (machine.same_cells(gs_t[0], tm_t[0])
                                    and machine.same_cells(gs_t[1], tm_t[1])):
                return None
            s = table.step(s)[1]  # as nda_step: halt cells step too
            state = network.net_step(net, state)
        want = table.of_digits(digits)  # the table a machine's network shares
        k = state.kernel
        if want != s or (want if k is table else k.of_digits(digits)) != state.scaled:
            return None
        prev = tm_t
    return digits


def _replay(m, tm_run, gs, auto, net):
    """The first mismatch of ``_agree``'s run and its branch (as in
    ``CompareResult``), or None twice: gs steps its own tapes, and every
    step compares decoded configurations, gs's with tm's, then nda's and
    net's Fraction points with tm's encoded one."""
    gs_t = tm_run.s0
    point = encode_config(m, machine.config_of(gs_t))
    table, s = auto.table.fit(point)
    state, cell = network.initial_state(net, point), None
    for t, tm_t in enumerate(tm_run):
        if t:
            gs_t = gshift.gs_tape_step(gs, gs_t) or gs_t  # a halt rule stays, as in gs_step
            cell, s = table.step(s)
            state = network.net_step(net, state)
        tm_c, gs_c = machine.config_of(tm_t), machine.config_of(gs_t)
        point = encode_config(m, tm_c)
        if gs_c != tm_c:  # both canonical, so equal exactly when their points are
            return (t, "tm", "gs", point, encode_config(m, gs_c)), None
        for level, k, got, at in (("nda", table, s, cell),
                                  ("net", state.kernel, state.scaled, state.corner)):
            if k.point(got) != point:  # the branch from ``at``, in the level's own table
                branch = None if at is None else (at, k[at[0] * k.n_s + at[1]])
                return (t, "tm", level, point, k.point(got)), branch
    return None, None


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
    # shallow: asdict would copy the final tape's tuples recursively
    d = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    if fmt == "json":
        print(json.dumps(d, indent=2))
        return
    if fmt == "csv":
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
        for what, t in (("", report.divergence_step), ("cell ", report.cell_divergence_step)):
            print(f"{what}divergence from exact trace: {'none' if t is None else f'step {t}'}")


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
    lines = [f"mismatch at step {t} between {ref} and {level}: "
             f"{ref}=({rat_str(want.x)}, {rat_str(want.y)}) "
             f"{level}=({rat_str(got.x)}, {rat_str(got.y)})"]
    for name, pt in ((ref, want), (level, got)):
        try:
            c = encode.decode_point(m, pt)
            lines.append(f"{name} configuration: state {c.state}, tape {tape_string(m, c)!r}, "
                         f"head on symbol {len(c.alpha) - 1}, window (X, q, Z) = "
                         f"({', '.join(gshift.window(m, c))})")
        except EncodingError as exc:
            lines.append(f"{name} configuration: does not decode ({exc})")
    if result.branch is not None:
        (i, j), params = result.branch
        lines.append(f"{level} stepped from cell ({i}, {j}) by branch (lambda_x, a_x, lambda_y, "
                     f"a_y) = ({', '.join(rat_str(v) for pair in params for v in pair)})")
    print("\n".join(lines), file=sys.stderr)
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
    table = net.branch_params
    lambdas = {lam for pair in table.pairs for lam in (pair[:2], pair[2:])}  # as num, den
    # a bias offset is a - h, one per distinct a = alpha/(c*n_s**j) of a row:
    # over L = lcm(c_x, c_y), free of n_s's primes as c is, a is one (alpha*L/c, j)
    scale_x, scale_y = (lcm(*table.c) // c for c in table.c)
    offsets = set()
    for _, ax, jx, _, ay, jy in map(table.row, range(len(table))):
        offsets.update(((ax * scale_x, jx), (ay * scale_y, jy)))
    # a BSL unit's threshold is its grid line; the last bound, 1, has none
    thresholds = {b for bounds in nda.grid_bounds(net.n_q, net.n_s) for b in bounds[:-1]}
    print(f"weights: {network.edge_count(net.n_q, net.n_s)} edges; values 1 and +-h/2, "
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
