"""First-order recurrent network compiled from the piecewise affine system.

Three layers of simple units simulate the switched dynamics in real time,
one network iteration per machine step:

* MCL (machine configuration layer): two ramp units holding the encoded
  configuration (c_x, c_y).
* BSL (branch selection layer): one Heaviside unit per grid line, thresholds
  at the cell boundaries, forming a staircase code of the current cell.
* LTL (linear transformation layer): one ramp unit pair per cell computing
  that cell's affine map, silenced by a bias -h unless the BSL delivers the
  full h of excitation (h/2 per axis, inhibition from the next line's unit).

Every weight is an exact rational fixed by the grid, h and each cell's
(lambda, a); simulation runs either exactly or in float64 (the latter only
to show how expansion destroys the encoding).  Exact mode computes only
what can be nonzero, on scaled integers (``nda.Kernel``): the BSL staircase
corner from the grid, then its LTL pair, then the MCL.  The bounds
0 < lambda and a + lambda <= h/2, enforced by the constructor, make that
equal to the dense sweep float64 mode runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

from .encode import Point, parse_rat, rat_str
from .machine import iterate
from .nda import Kernel, Nda, grid_bounds

HALT_ATOL = 1e-9  # float-mode fixed-point tolerance per coordinate
ZERO, ONE = Fraction(0), Fraction(1)

MCL_X, MCL_Y = "mcl_x", "mcl_y"
BSL_X, BSL_Y = "bsl_x", "bsl_y"
LTL_X, LTL_Y = "ltl_x", "ltl_y"
BIAS = "bias"

ACTIVATION = {
    MCL_X: "ramp",
    MCL_Y: "ramp",
    BSL_X: "heaviside",
    BSL_Y: "heaviside",
    LTL_X: "ramp",
    LTL_Y: "ramp",
    BIAS: "one",
}


class NetworkFormatError(ValueError):
    """Malformed or inconsistent serialized network."""


class DegenerateMachineError(ValueError):
    """No positive inhibition bias exists (impossible for valid machines)."""


def unit_count(n_q: int, n_s: int) -> int:
    """Total units: 2 MCL + (n_s + n_s*n_q) BSL + 2*n_s^2*n_q LTL + 1 bias."""
    return 2 + n_s + n_s * n_q + 2 * n_s * n_s * n_q + 1


def _unit_ids(n_q: int, n_s: int) -> tuple[range, range, range]:
    """Ids of the BSL x units, the BSL y units and the LTL x units.

    The MCL units are 0 and 1.  The LTL pair of cell (i, j) is the x unit at
    position i*n_s + j of the third range and the id after it; the bias is
    the last unit, at that range's stop.
    """
    m = n_q * n_s
    ltl = 2 + m + n_s
    return range(2, 2 + m), range(2 + m, ltl), range(ltl, ltl + 2 * m * n_s, 2)


@dataclass(frozen=True)
class Unit:
    id: int
    kind: str
    index: int | None = None  # BSL position along its axis
    cell: tuple[int, int] | None = None  # LTL cell


@dataclass(frozen=True)
class Network:
    """A network is its branch table: h and the per-cell ``branch_params``
    that ``_wire`` takes.  ``units`` and ``weights``, which maps (from unit
    id, to unit id) to the exact weight and omits zero entries, are derived
    on first read.  The machine enumeration tables travel along so a
    serialized network stays decodable.
    """

    n_q: int
    n_s: int
    states: tuple[str, ...]
    symbols: tuple[str, ...]
    h: Fraction
    branch_params: tuple

    def __post_init__(self):
        """Enforce the bounds that make the sparse step equal the sweep.

        Off its staircase corner an LTL unit receives at most h/2 from the
        BSL, so over [0, 1]^2 its input is at most lambda + a - h/2 <= 0.
        """
        if not self.h > 0:
            raise NetworkFormatError("h must be positive")
        ltl, half = _unit_ids(self.n_q, self.n_s)[2], self.h / 2
        if len(self.branch_params) != len(ltl):
            raise NetworkFormatError("branch_params needs one entry per cell")
        ns = self.n_s  # (lambda_x, lambda_y) of R, L and halt cells, as num, den
        constructed = {(1, ns, ns, 1), (ns, 1, 1, ns), (1, 1, 1, 1)}
        for c, (t, params) in enumerate(zip(ltl, self.branch_params)):
            for u, kind, (lam, a) in zip((t, t + 1), (LTL_X, LTL_Y), params):
                if not (lam > 0 and a + lam <= half):
                    raise NetworkFormatError(
                        f"{kind} {u}: lambda = {lam} and a = {a} break "
                        f"0 < lambda and a + lambda <= h/2 = {half}")
            (lx, _), (ly, _) = params
            if (lx.numerator, lx.denominator, ly.numerator, ly.denominator) not in constructed:
                raise NetworkFormatError(f"cell {divmod(c, ns)}: lambda pair ({lx}, {ly}) "
                                         "is not (1/n_s, n_s), (n_s, 1/n_s) or (1, 1)")

    @cached_property
    def kernel(self) -> Kernel:
        """The branch table on scaled integers, built on the first exact step."""
        return Kernel(self.n_q, self.n_s, enumerate(self.branch_params))

    @cached_property
    def units(self) -> tuple[Unit, ...]:
        return _layout_units(self.n_q, self.n_s)

    @cached_property
    def weights(self) -> dict[tuple[int, int], Fraction]:
        return _wire(self.n_q, self.n_s, self.h, self.branch_params)

    @cached_property
    def _in_edges(self) -> tuple:
        incoming = [[] for _ in range(self.n_units)]
        for (src, dst), w in sorted(self.weights.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            incoming[dst].append((src, w))
        return tuple(tuple(edges) for edges in incoming)

    @cached_property
    def _in_edges_float(self) -> tuple:
        try:
            return tuple(tuple((src, float(w)) for src, w in edges)
                         for edges in self._in_edges)
        except OverflowError as exc:
            raise NetworkFormatError(f"a weight exceeds the float64 range: {exc}") from exc

    @cached_property
    def _bsl_ids(self) -> tuple[int, ...]:
        return tuple(u for ids in _unit_ids(self.n_q, self.n_s)[:2] for u in ids)

    @cached_property
    def _ltl_ids(self) -> tuple[int, ...]:
        ltl = _unit_ids(self.n_q, self.n_s)[2]
        return tuple(range(ltl.start, ltl.stop))

    @property
    def n_units(self) -> int:
        return unit_count(self.n_q, self.n_s)

    @property
    def n_x_cells(self) -> int:
        return self.n_q * self.n_s

    @property
    def n_y_cells(self) -> int:
        return self.n_s

    @property
    def bias_id(self) -> int:
        return self.n_units - 1

    def bsl_x_id(self, i: int) -> int:
        return _unit_ids(self.n_q, self.n_s)[0][i]

    def bsl_y_id(self, j: int) -> int:
        return _unit_ids(self.n_q, self.n_s)[1][j]

    def ltl_ids(self, i: int, j: int) -> tuple[int, int]:
        t = _unit_ids(self.n_q, self.n_s)[2][i * self.n_s + j]
        return t, t + 1

    def weight(self, src: int, dst: int) -> Fraction:
        return self.weights.get((src, dst), Fraction(0))


def _layout_units(n_q: int, n_s: int) -> tuple[Unit, ...]:
    bsl_x, bsl_y, ltl = _unit_ids(n_q, n_s)
    units = [Unit(0, MCL_X), Unit(1, MCL_Y)]
    units += [Unit(u, BSL_X, index=i) for i, u in enumerate(bsl_x)]
    units += [Unit(u, BSL_Y, index=j) for j, u in enumerate(bsl_y)]
    for c, t in enumerate(ltl):
        cell = divmod(c, n_s)
        units += [Unit(t, LTL_X, cell=cell), Unit(t + 1, LTL_Y, cell=cell)]
    units.append(Unit(ltl.stop, BIAS))
    return tuple(units)


def _wire(n_q: int, n_s: int, h: Fraction, branch_params) -> dict[tuple[int, int], Fraction]:
    """The exact weights; the only definition of which edges exist.

    ``branch_params[i*n_s + j]`` is ((lambda_x, a_x), (lambda_y, a_y)) of
    cell (i, j).  Each BSL unit reads its axis' MCL unit against the bias at
    its grid line; each LTL unit reads lambda*c + a - h from its MCL unit and
    the bias, +h/2 from its own grid line's BSL unit and -h/2 from the next
    one's on both axes, and feeds its MCL unit with weight 1.
    """
    bsl_x, bsl_y, ltl = _unit_ids(n_q, n_s)
    bias, excitation = ltl.stop, (h / 2, -h / 2)
    weights = {}
    # zip drops the last bound, 1, which has no grid line unit
    for mcl, ids, bounds in zip((0, 1), (bsl_x, bsl_y), grid_bounds(n_q, n_s)):
        for b, lo in zip(ids, bounds):
            weights[(mcl, b)] = ONE
            if lo:
                weights[(bias, b)] = -lo
    for c, (t0, params) in enumerate(zip(ltl, branch_params)):
        for mcl, (lam, a) in enumerate(params):
            t = t0 + mcl
            weights[(mcl, t)] = lam
            weights[(bias, t)] = a - h
            # the last grid line of an axis has no next one
            for ids, k in zip((bsl_x, bsl_y), divmod(c, n_s)):
                for b, w in zip(ids[k:k + 2], excitation):
                    weights[(b, t)] = w
            weights[(t, mcl)] = ONE
    return weights


def build_network(nda: Nda) -> Network:
    """Wire the network for a switched system; h is the minimal valid bias.

    The bias satisfies h/2 >= max(a + lambda) over all branch parameters,
    taken with equality: a ramp unit at exactly zero input stays silent, so
    the half-excited partial sum h/2 can never fire a wrong cell.
    """
    mach = nda.machine
    n_q, n_s = mach.n_states, mach.n_symbols
    params = tuple(((br.lambda_x, br.a_x), (br.lambda_y, br.a_y))
                   for _, br in sorted(nda.branches.items()))
    peak = max(a + lam for cell in params for lam, a in cell)
    if peak <= 0:
        raise DegenerateMachineError("max(a + lambda) must be positive")
    h = 2 * peak
    return Network(n_q=n_q, n_s=n_s, states=mach.states, symbols=mach.tape_symbols,
                   h=h, branch_params=params)


@dataclass(slots=True, eq=False)  # not frozen: that would triple the cost of a step
class NetState:
    """One network state, not to be changed; the bias unit is pinned to 1.

    A float64 state holds its MCL and its whole activation vector.  An exact
    state holds its MCL as a state of an ``nda.Kernel`` (``scaled``) and the
    BSL staircase corner (i*, j*) of the sweep that produced it (None before
    the first sweep), which fix every activation under the branch bounds:
    ``mcl`` and ``values`` (equal to the dense sweep's) are built as
    Fractions on first read.  Equality is the MCL's: the corner, the last
    MCL's cell, does not change the run on.
    """

    mode: str  # "exact" | "float64"
    _mcl: tuple | None
    corner: tuple[int, int] | None = None
    scaled: tuple | None = None
    kernel: Kernel | None = field(default=None, repr=False)
    _net: Network | None = field(default=None, repr=False)
    _values: tuple | None = field(default=None, repr=False)

    @property
    def mcl(self) -> tuple:
        if self._mcl is None:
            self._mcl = self.kernel.point(self.scaled)
        return self._mcl

    @property
    def floats(self) -> tuple[float, float]:
        """The MCL in float64; int / int is correctly rounded, as float(Fraction)."""
        if self.scaled is None:
            return self.mcl
        return tuple(n / d for n, d in self.kernel.ratios(self.scaled))

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = _exact_values(self._net, self)
        return self._values

    def __eq__(self, other):
        if not isinstance(other, NetState):
            return NotImplemented
        return self.mode == other.mode and (
            self.values == other.values if self.scaled is None
            else self.kernel.key(self.scaled) == other.kernel.key(other.scaled))

    def __hash__(self):
        return hash((self.mode, self.mcl if self.scaled is None else self.kernel.key(self.scaled)))


def _exact_values(net: Network, state: NetState) -> tuple:
    """The dense activation vector of an exact state: the BSL units up to the
    corner are on, and only the corner's LTL pair, which the MCL copies with
    weight 1, can be positive."""
    vals = [ZERO] * net.n_units
    vals[0], vals[1] = state.mcl
    vals[net.bias_id] = 1
    if state.corner is not None:
        for ids, k in zip(_unit_ids(net.n_q, net.n_s), state.corner):
            vals[ids.start:ids.stop] = [1] * (k + 1) + [0] * (len(ids) - 1 - k)
        tx, ty = net.ltl_ids(*state.corner)
        vals[tx], vals[ty] = state.mcl
    return tuple(vals)


def initial_state(net: Network, pt: Point, mode: str = "exact") -> NetState:
    """MCL set to the encoded configuration, everything else silent."""
    if mode not in ("exact", "float64"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        kernel, s = net.kernel.fit(pt)
        return NetState(mode, None, scaled=s, kernel=kernel, _net=net)
    values = [0.0] * net.n_units
    values[0], values[1] = float(pt.x), float(pt.y)
    values[net.bias_id] = 1.0
    return NetState(mode, (values[0], values[1]), _values=tuple(values))


def net_step(net: Network, state: NetState) -> NetState:
    """One machine step.

    Exact mode runs the sparse step (``_sparse_step``); float64 runs the
    dense three-phase sweep (``_dense_sweep``).
    """
    if state.mode == "exact":
        return _sparse_step(net, state)
    vals = _dense_sweep(net, state.values, exact=False)
    return NetState(state.mode, (vals[0], vals[1]), _values=vals)


def _dense_sweep(net: Network, values: tuple, exact: bool) -> tuple:
    """One machine step as a three-phase sweep over the adjacency.

    Phase 1 re-thresholds the BSL against the current MCL, phase 2 lets the
    LTL read MCL, BSL and bias, phase 3 writes the LTL sums back into the
    MCL through the ramp.
    """
    edges = net._in_edges if exact else net._in_edges_float
    zero = ZERO if exact else 0.0
    vals = list(values)
    # MCL values are untouched until phase 3, so reading `vals` below always
    # sees old MCL and (in phase 2) fresh BSL.
    for ids in (net._bsl_ids, net._ltl_ids, (0, 1)):
        heaviside = ids is net._bsl_ids
        for u in ids:
            total = zero
            for src, w in edges[u]:
                v = vals[src]
                if v:
                    total = total + w * v
            vals[u] = (1 if total >= 0 else 0) if heaviside else (total if total > 0 else zero)
    return tuple(vals)


def _sparse_step(net: Network, state: NetState) -> NetState:
    """The exact step computing only what can be nonzero, on the kernel.

    The BSL staircase corner is the grid cell of the MCL, closed at x = 1
    and y = 1 where every BSL unit of the axis is on; the corner's LTL pair
    is the only one that can fire, and the MCL takes its outputs, ramped.
    Equal to ``_dense_sweep`` on every MCL in [0, 1]^2; outside, where that
    is not proven, raises CellRangeError."""
    if state._net is not net:  # a state of another network
        state = initial_state(net, state.mcl)
    corner, s = state.kernel.step(state.scaled, net=True)
    return NetState(state.mode, None, corner, s, state.kernel, net)


def net_successor(net: Network, state: NetState) -> NetState | None:
    """``net_step``, or None where it leaves the MCL fixed (the network's
    halt): equal in exact mode, within ``HALT_ATOL`` per coordinate in float64."""
    nxt = net_step(net, state)
    if state.mode == "exact":
        fixed = nxt.scaled == state.scaled if nxt.kernel is state.kernel else nxt == state
    else:
        fixed = all(abs(p - q) <= HALT_ATOL for p, q in zip(state.mcl, nxt.mcl))
    return None if fixed else nxt


def is_halted(net: Network, state: NetState) -> bool:
    """Fixed-point halting: one more iteration leaves the MCL unchanged."""
    return net_successor(net, state) is None


def bsl_pattern(net: Network, state: NetState) -> tuple[int, ...]:
    return tuple(1 if state.values[u] else 0 for u in net._bsl_ids)


def active_cell(net: Network, state: NetState) -> tuple[int, int] | None:
    """Cell of the positive LTL pair, None if all LTL units are silent."""
    if state.mode == "exact":  # the corner pair outputs the MCL, the rest are silent
        return state.corner if state.scaled[0] > 0 or state.scaled[2] > 0 else None
    cells = {net.units[u].cell for u in net._ltl_ids if state.values[u] > 0}
    if not cells:
        return None
    if len(cells) > 1:
        raise ValueError(f"multiple active LTL cells: {sorted(cells)}")
    return cells.pop()


@dataclass(frozen=True)
class NetTrace:
    states: tuple[NetState, ...]
    halted: bool

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    @property
    def final(self) -> NetState:
        return self.states[-1]


def run_network(net: Network, s0: NetState, max_steps: int) -> NetTrace:
    """Iterate until the MCL reaches a fixed point or ``max_steps``."""
    return NetTrace(*iterate(partial(net_successor, net), s0, max_steps))


def net_trace_rows(net: Network, trace: NetTrace) -> list[dict]:
    """CSV rows: exact values as num/den, floats with 17 significant digits."""
    rows = []
    last = len(trace.states) - 1
    for t, s in enumerate(trace.states):
        cx, cy = (rat_str(v) if s.mode == "exact" else f"{v:.17g}" for v in s.mcl)
        cell = active_cell(net, s)
        rows.append({"step": t, "c_x": cx, "c_y": cy,
                     "active_cell_i": "" if cell is None else cell[0],
                     "active_cell_j": "" if cell is None else cell[1],
                     "halted": trace.halted and t == last})
    return rows


def export_network(net: Network) -> dict:
    """Lossless JSON document (meta, units, sparse weight list)."""
    units = []
    for u in net.units:
        params: dict = {"activation": ACTIVATION[u.kind]}
        if u.index is not None:
            params["index"] = u.index
        if u.cell is not None:
            params["cell"] = [u.cell[0], u.cell[1]]
        units.append({"id": u.id, "kind": u.kind, "params": params})
    weights = [
        {"from": src, "to": dst, "value": rat_str(w)}
        for (src, dst), w in sorted(net.weights.items())
    ]
    return {
        "meta": {
            "n_q": net.n_q,
            "n_s": net.n_s,
            "h": rat_str(net.h),
            "states": list(net.states),
            "symbols": list(net.symbols),
            "cell_order": "x cells by (state index, left-symbol index), "
                          "y cells by head-symbol index, 0-based",
        },
        "units": units,
        "weights": weights,
    }


# what parsing a malformed document can raise, besides NetworkFormatError
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError, OverflowError)


def import_network(doc: dict) -> Network:
    """Parse a serialized network and require the wiring its parameters give.

    After the unit count and the canonical unit layout, each cell's
    (lambda, a) is read off the document's MCL -> LTL and bias -> LTL edges,
    and the ``Network`` of those and the document's h is constructed, which
    bounds them.  The document must hold exactly that network's weight dict:
    the first differing, missing or extra edge is reported.  Any malformed
    document raises NetworkFormatError.
    """
    try:
        meta = doc["meta"]
        n_q, n_s = int(meta["n_q"]), int(meta["n_s"])
        h = parse_rat(meta["h"])
        states = tuple(meta["states"])
        symbols = tuple(meta["symbols"])
        unit_docs = doc["units"]
        weight_docs = doc["weights"]
    except _MALFORMED as exc:
        raise NetworkFormatError(f"malformed network document: {exc}") from exc
    if not (isinstance(unit_docs, list) and isinstance(weight_docs, list)):
        raise NetworkFormatError("units and weights must be lists")
    if n_q < 1 or n_s < 1:
        raise NetworkFormatError("n_q and n_s must be positive")
    if len(states) != n_q or len(symbols) != n_s:
        raise NetworkFormatError("state/symbol tables do not match n_q/n_s")

    # the count is checked before the layout is built, so a document cannot
    # make the import allocate more units than it lists
    if len(unit_docs) != unit_count(n_q, n_s):
        raise NetworkFormatError(
            f"unit count {len(unit_docs)} does not match the formula value "
            f"{unit_count(n_q, n_s)} for n_q={n_q}, n_s={n_s}"
        )
    units = _layout_units(n_q, n_s)
    try:
        unit_docs = sorted(unit_docs, key=lambda u: u.get("id", -1))
    except _MALFORMED as exc:
        raise NetworkFormatError("malformed unit list") from exc
    for entry, want in zip(unit_docs, units):
        try:
            params = entry.get("params", {})
            got = Unit(
                id=int(entry["id"]),
                kind=entry["kind"],
                index=params.get("index"),
                cell=tuple(params["cell"]) if "cell" in params else None,
            )
            activation = params.get("activation", ACTIVATION[want.kind])
        except _MALFORMED as exc:
            raise NetworkFormatError(f"malformed unit entry: {entry}") from exc
        if got != want:
            raise NetworkFormatError(
                f"unit {got.id} deviates from the canonical layout: "
                f"got {got}, expected {want}"
            )
        if activation != ACTIVATION[want.kind]:
            raise NetworkFormatError(f"unit {got.id}: wrong activation for {got.kind}")

    weights: dict[tuple[int, int], Fraction] = {}
    for entry in weight_docs:
        try:
            src, dst = int(entry["from"]), int(entry["to"])
            w = parse_rat(entry["value"])
        except _MALFORMED as exc:
            raise NetworkFormatError(f"malformed weight entry: {entry}") from exc
        if not (0 <= src < len(units) and 0 <= dst < len(units)):
            raise NetworkFormatError(f"weight references unknown unit: {entry}")
        if (src, dst) in weights:
            raise NetworkFormatError(f"duplicate weight for edge {(src, dst)}")
        weights[(src, dst)] = w

    def name(u: int) -> str:
        return f"{units[u].kind} {u}"

    def edge(src: int, dst: int) -> Fraction:
        if (src, dst) not in weights:
            raise NetworkFormatError(f"{name(src)} -> {name(dst)}: missing edge")
        return weights[(src, dst)]

    ltl, bias = _unit_ids(n_q, n_s)[2], units[-1].id
    net = Network(n_q=n_q, n_s=n_s, states=states, symbols=symbols, h=h,
                  branch_params=tuple(((edge(0, t), edge(bias, t) + h),
                                       (edge(1, t + 1), edge(bias, t + 1) + h))
                                      for t in ltl))
    for (src, dst), want in net.weights.items():
        if (got := edge(src, dst)) != want:
            raise NetworkFormatError(
                f"{name(src)} -> {name(dst)}: weight {got} != required {want}")
    extras = weights.keys() - net.weights.keys()
    if extras:
        raise NetworkFormatError(
            f"edges outside the permitted architecture: {sorted(extras)[:5]}"
        )
    return net
