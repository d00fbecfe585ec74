"""Operations of one benchmark case and their checks against the reference.

Imported only after ``run.load_package`` has put this checkout's ``src``
first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import reference
from tm2net import cli, encode, gshift, machine, nda, network
from workloads import OUT, ROOT, SRC

CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 120

# CLI run and compare operations: (subcommand, level, mode)
RUNS = {
    "run_tm": ("run", "tm", "exact"),
    "run_gs": ("run", "gs", "exact"),
    "run_nda": ("run", "nda", "exact"),
    "run_net": ("run", "net", "exact"),
    "run_float": ("run", "net", "float64"),
    "compare": ("compare", None, None),
}


class Mismatch(Exception):
    """An operation's output differs from the reference, or it crashed."""


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def checked(self, fn, *args) -> None:
        """Count one operation; a Mismatch fails it."""
        self.attempted += 1
        try:
            fn(*args)
        except Mismatch as exc:
            self.failed += 1
            print(f"FAILED {exc}", file=sys.stderr)


class Case:
    """One workload at one seed: inputs, argv per operation, expected outcome."""

    def __init__(self, workload, seed: int):
        self.name = workload.name
        self.seed = seed
        self.path = str(workload.machine)
        self.text = workload.machine.read_text(encoding="utf-8")
        self.word = workload.word(seed)
        self.budget = workload.budget
        self.ref_machine = reference.parse(self.text)
        self.expected = reference.run(self.ref_machine, self.word, self.budget)
        # compile writes a new file each time: truncating one that holds
        # data can cost more than the compile on some file systems
        self.compile_dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT))
        self._outputs = itertools.count()
        self.float_counts = None  # (steps, divergence_step) of the first float run

    def argv(self, op: str) -> list[str]:
        command, level, mode = RUNS[op]
        budget = ["--max-steps", str(self.budget)]
        if command == "compare":
            return ["compare", self.path, self.word] + budget
        return ["run", self.path, self.word, "--level", level, "--mode", mode,
                "--format", "json"] + budget

    def check(self, op: str, rc: int, stdout: str) -> None:
        """Raise Mismatch unless the operation reproduced the reference."""
        exp = self.expected
        if rc != 0:
            raise Mismatch(f"{op}: exit code {rc}")
        if op == "compare":
            status = "halted" if exp.halted else "timeout"
            want = f"all levels agree over {exp.steps} steps ({status})\n"
            if stdout != want:
                raise Mismatch(f"compare: got {stdout!r}, want {want!r}")
            return
        doc = json.loads(stdout)
        _, level, mode = RUNS[op]
        got = (doc["level"], doc["mode"], tuple(doc["final_alpha"]),
               tuple(doc["final_beta"]), Fraction(doc["final_x"]),
               Fraction(doc["final_y"]))
        want = (level, mode, exp.alpha, exp.beta, exp.x, exp.y)
        if mode == "exact":
            got += (doc["steps"], doc["halted"])
            want += (exp.steps, exp.halted)
        if got != want:
            raise Mismatch(f"{op}: got {got}, want {want}")
        if mode == "float64":
            # the float run has no reference; it must repeat exactly
            counts = (doc["steps"], doc["divergence_step"])
            if self.float_counts is None:
                self.float_counts = counts
            elif counts != self.float_counts:
                raise Mismatch(f"{op}: float run {counts} != {self.float_counts}")

    def setup(self) -> network.Network:
        """What every run and compare pays before step 0."""
        m = machine.parse_machine(self.text)
        gshift.build_gshift(m)
        return network.build_network(nda.build_nda(m))

    def check_setup(self, net: network.Network) -> None:
        units, want = net.n_units, reference.unit_count(self.ref_machine)
        if units != want:
            raise Mismatch(f"setup: {units} units, want {want}")

    def compile(self) -> tuple[int, network.Network]:
        """``tm2net compile --target net``, then import of the written file."""
        out = self.compile_dir / f"{next(self._outputs)}.net.json"
        argv = ["compile", self.path, "--target", "net", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        with open(out, encoding="utf-8") as fh:
            return rc, network.import_network(json.load(fh))

    def check_compile(self, rc: int, net: network.Network) -> None:
        if rc != 0 or net != self.setup():
            raise Mismatch(f"compile: exit code {rc} or round trip differs")

    def library(self, op: str) -> None:
        """The library calls a CLI operation needs, on the same inputs."""
        m = machine.parse_machine(self.text)
        c0 = machine.initial_config(m, tuple(self.word))
        budget = self.budget
        if op in ("run_tm", "compare"):
            encode.encode_config(m, machine.run_tm(m, c0, budget).final)
        if op in ("run_gs", "compare"):
            encode.encode_config(m, gshift.run_gs(gshift.build_gshift(m), c0, budget).final)
        if op in ("run_tm", "run_gs"):
            return
        auto = nda.build_nda(m)
        pt0 = encode.encode_config(m, c0)
        if op in ("run_nda", "compare"):
            encode.decode_point(m, nda.run_nda(auto, pt0, budget).points[-1])
        if op == "run_nda":
            return
        net = network.build_network(auto)
        exact = network.run_network(net, network.initial_state(net, pt0), budget)
        encode.decode_point(m, encode.Point(*exact.final.mcl))
        if op == "run_float":
            network.run_network(net, network.initial_state(net, pt0, "float64"), budget)


def in_process(argv: list[str]) -> tuple[int, float, str]:
    """Exit code, wall time and stdout of ``cli.main(argv)`` in this process."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, time.perf_counter() - t0, out.getvalue()


def in_child(argv: list[str]) -> tuple[int, str, int]:
    """Exit code, stdout and peak RSS in KiB of ``cli.main(argv)`` in a fresh
    interpreter."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(SRC), json.dumps(argv)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise Mismatch(f"child timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise Mismatch(f"child exited {proc.returncode}: {proc.stderr.strip()}")
    doc = json.loads(proc.stdout)
    return doc["rc"], doc["stdout"], doc["peak_kb"]
