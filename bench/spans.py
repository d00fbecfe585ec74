"""Outside-in span tracing of tm2net's public functions.

``Tracer.patch`` replaces each traced function, in every tm2net module
namespace that holds it, with a wrapper that records a span (id, parent,
name, start, end) around the call.  Calls between tm2net functions go
through module globals, so nested calls become child spans without any
change to the package.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# The public calls made by `run` and `compare` that get a span, by module.
# Helpers called per digit or per unit (godel_value, canonical_config,
# active_cell, rat_str) are left out: their time is the self time of the
# traced function that calls them.
TRACED = {
    "machine": ("parse_machine", "initial_config", "tm_step", "run_tm",
                "tape_string"),
    "gshift": ("build_gshift", "gs_step", "run_gs"),
    "encode": ("encode_config", "decode_point"),
    "nda": ("build_nda", "cell_of_point", "nda_step", "run_nda", "orbit_rows"),
    "network": ("build_network", "initial_state", "net_step", "run_network",
                "net_trace_rows"),
    "cli": ("main", "run_level", "compare_levels", "first_divergence"),
}
MODULES = tuple(TRACED)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span of the benchmark's own."""
        return self._wrap(name, fn)(*args)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)

        return traced

    def patch(self) -> None:
        """Install the wrappers in every loaded tm2net module."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "tm2net" or n.startswith("tm2net.")]
        for module, names in TRACED.items():
            source = sys.modules[f"tm2net.{module}"]
            for name in names:
                original = getattr(source, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for ns in namespaces:
                    if getattr(ns, name, None) is original:
                        self._undo.append((ns, name, original))
                        setattr(ns, name, wrapper)

    def unpatch(self) -> None:
        for ns, name, original in reversed(self._undo):
            setattr(ns, name, original)
        self._undo.clear()

    def self_times(self, root: int) -> dict[str, float]:
        """Seconds of self time per module inside span ``root``.

        A span's self time is its duration minus its direct children's.
        Spans the benchmark opened itself count under their own name.
        """
        child_time = defaultdict(float)
        inside = {root}
        totals = defaultdict(float)
        for sid, parent, name, start, end in self.spans[root:]:
            if sid != root and parent not in inside:
                continue
            inside.add(sid)
            if sid != root:
                child_time[parent] += end - start
        for sid in inside:
            _, _, name, start, end = self.spans[sid]
            totals[name.split(".", 1)[0]] += end - start - child_time[sid]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
