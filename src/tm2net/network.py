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
(lambda, a).  A step is the sweep over every in-edge, computed only where a
unit can be nonzero: the BSL staircase corner from the grid, the LTL units
that can fire, the MCL.  Exact mode runs it on its branch table's scaled
integers (``nda.BranchTable``), where the bounds 0 < lambda and a + lambda
<= h/2, enforced by the constructor, leave the corner's pair; float64, only
there to show how expansion destroys the encoding, keeps the sweep's rounding.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

from .encode import Point, parse_rat, rat_str
from .machine import Run, Trace, _Rows
from .nda import BranchTable, Nda, grid_bounds

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


def unit_count(n_q: int, n_s: int) -> int:
    """Total units: 2 MCL + (n_s + n_s*n_q) BSL + 2*n_s^2*n_q LTL + 1 bias."""
    return 2 + n_s + n_s * n_q + 2 * n_s * n_s * n_q + 1


def edge_count(n_q: int, n_s: int) -> int:
    """Total edges of ``_wire`` on n_x = n_q*n_s by n_y = n_s cells: 2(n_x +
    n_y) - 2 into the BSL and 7 per LTL unit, one less per axis on its last row."""
    return 14 * n_q * n_s * n_s - 2


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
    that ``_wire`` takes, an ``nda.BranchTable`` (given a tuple of entries,
    the constructor makes one).  ``units`` and ``weights``, which maps (from
    unit id, to unit id) to the exact weight and omits zero entries, are
    derived on first read.  The machine enumeration tables travel along so
    a serialized network stays decodable.
    """

    n_q: int
    n_s: int
    states: tuple[str, ...]
    symbols: tuple[str, ...]
    h: Fraction
    branch_params: BranchTable

    def __post_init__(self):
        """Enforce the bounds that make the sparse step equal the sweep.

        Off its staircase corner an LTL unit receives at most h/2 from the
        BSL, so over [0, 1]^2 its input is at most lambda + a - h/2 <= 0.
        The table's peak max(a + lambda) is checked; ``BranchTable.of_params``
        checks explicit entries' lambda pairs, a machine's are the construction's.
        """
        if not self.h > 0:
            raise NetworkFormatError("h must be positive")
        n_q, ns, half, table = self.n_q, self.n_s, self.h / 2, self.branch_params
        if len(table) != n_q * ns * ns:
            raise NetworkFormatError("branch_params needs one entry per cell")
        if not isinstance(table, BranchTable):  # explicit entries: one pass
            try:
                table = BranchTable.of_params(n_q, ns, table)
            except ValueError as exc:  # a lambda pair off the construction
                raise NetworkFormatError(str(exc)) from exc
            object.__setattr__(self, "branch_params", table)
        if (table.n_q, table.n_s) != (n_q, ns):
            raise NetworkFormatError(
                f"a {table.n_q} x {table.n_s} branch table for n_q={n_q}, n_s={ns}")
        if table.peak > half:
            raise NetworkFormatError(f"h/2 = {half} is below the machine's max(a + lambda), "
                                     f"{table.peak}: 0 < lambda and a + lambda <= h/2 fails")

    @cached_property
    def units(self) -> tuple[Unit, ...]:
        return _layout_units(self.n_q, self.n_s)

    @cached_property
    def weights(self) -> dict[tuple[int, int], Fraction]:
        return _wire(self.n_q, self.n_s, self.h, self.branch_params)

    @cached_property
    def _float_table(self) -> tuple:
        """The float64 weights, built on the first float step (see
        ``_float_step``): per lambda pair its largest a - h, rounding being
        monotone, and a cell's (pair, a - h) on its first read.  A weight
        beyond the float64 range raises NetworkFormatError."""
        table, h = self.branch_params, self.h
        pairs = [(nx / dx, ny / dy, _float(ax - h), _float(ay - h))
                 for (nx, dx, ny, dy), (_, ax, ay) in table.pairs.items()]
        index = {pair: p for p, pair in enumerate(table.pairs)}

        def cell(u: int) -> tuple:
            (lx, ax), (ly, ay) = table[u]
            pair = lx.numerator, lx.denominator, ly.numerator, ly.denominator
            return index[pair], _float(ax - h), _float(ay - h)

        half = _float(h / 2)  # the weights -h/2, -lo and 1 are in range when h/2 and lo are
        xs, ys = (tuple(map(float, b[:-1])) for b in grid_bounds(self.n_q, self.n_s))
        lines = (half, -half), (half,), ()  # per place: below, at, above the corner
        return xs, ys, tuple(tuple(a + b for b in lines) for a in lines), pairs, _Rows(cell)

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


def _float(v: Fraction) -> float:
    try:
        return float(v)
    except OverflowError as exc:
        raise NetworkFormatError(f"a weight exceeds the float64 range: {exc}") from exc


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
    return Network(n_q=mach.n_states, n_s=mach.n_symbols, states=mach.states,
                   symbols=mach.tape_symbols, h=2 * nda.table.peak, branch_params=nda.table)


@dataclass(slots=True, eq=False)  # not frozen: that would triple the cost of a step
class NetState:
    """One network state, not to be changed; the bias unit is pinned to 1.

    A state holds its MCL, the BSL staircase corner (i*, j*) of the sweep
    that produced it (the last MCL's cell; None before the first sweep) and,
    in float64, its fired LTL units as (unit id, output).  An exact state's
    MCL is a state (``scaled``) of ``kernel``, the network's branch table or
    one ``fit`` widened for an off-lattice start, read as Fractions, and only
    its corner's pair fires.  ``values``, the dense sweep's vector, is built
    on read.  Equality is the MCL's (exact) or the stored fields'.
    """

    mode: str  # "exact" | "float64"
    _mcl: tuple | None
    corner: tuple[int, int] | None = None
    scaled: tuple | None = None
    kernel: BranchTable | None = field(default=None, repr=False)
    _net: Network | None = field(default=None, repr=False)
    fired: tuple = ()
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
            self._values = _values(self._net, self)
        return self._values

    def __eq__(self, other):
        if not isinstance(other, NetState):
            return NotImplemented
        return self.mode == other.mode and (
            (self.mcl, self.corner, self.fired) == (other.mcl, other.corner, other.fired)
            if self.scaled is None
            else self.kernel.key(self.scaled) == other.kernel.key(other.scaled))

    def __hash__(self):
        return hash((self.mode, self.mcl if self.scaled is None else self.kernel.key(self.scaled)))


def _values(net: Network, state: NetState) -> tuple:
    """The dense activation vector: the BSL units up to the corner are on,
    the fired LTL units hold their outputs (in exact mode the corner pair,
    which the MCL copies with weight 1), the bias is 1, the rest is 0."""
    exact = state.mode == "exact"
    vals = [ZERO if exact else 0.0] * net.n_units
    vals[0], vals[1] = state.mcl
    vals[net.bias_id] = 1
    if state.corner is not None:
        vals[2:2 + net.n_x_cells + net.n_y_cells] = bsl_pattern(net, state)
        for u, v in zip(net.ltl_ids(*state.corner), state.mcl) if exact else state.fired:
            vals[u] = v
    return tuple(vals)


def initial_state(net: Network, pt: Point, mode: str = "exact") -> NetState:
    """MCL set to the encoded configuration, everything else silent."""
    if mode not in ("exact", "float64"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        table, s = net.branch_params.fit(pt)
        return NetState(mode, None, scaled=s, kernel=table, _net=net)
    return NetState(mode, (float(pt.x), float(pt.y)), _net=net)


def net_step(net: Network, state: NetState) -> NetState:
    """One machine step: ``_sparse_step`` exactly, ``_float_step`` in float64."""
    return (_sparse_step if state.mode == "exact" else _float_step)(net, state)


def _float_step(net: Network, state: NetState) -> NetState:
    """The sweep's float64 operations, in its order, where a unit can turn on.

    A BSL unit's fl(c + float(-lo)) >= 0 holds exactly when c >= float(lo),
    so the units on are a prefix, ending at the corner.  An LTL unit sums
    fl(lambda*c), the +h/2 and -h/2 of its grid lines' BSL units that are on
    (on x, then y) and a - h: fl(P + A), with P fixed by lambda and the
    cell's place (below, at, above) against the corner on each axis.
    Rounding is monotone, so a (lambda pair, place) group with fl(P + its
    largest A) <= 0 cannot fire.  The MCL adds the fired outputs in id order.
    """
    xs, ys, lines, pairs, cells = net._float_table
    x, y = state.mcl
    corner = bisect_right(xs, x) - 1, bisect_right(ys, y) - 1
    span_x, span_y = ((range(k), range(max(k, 0), k + 1), range(k + 1, len(lo)))
                      for k, lo in zip(corner, (xs, ys)))  # below, at, above the corner
    ns, summed = net.n_s, []
    for p, (lx, ly, top_x, top_y) in enumerate(pairs):
        px, py = 0.0 + lx * x, 0.0 + ly * y
        for lines_i, span_i in zip(lines, span_x):
            for terms, span_j in zip(lines_i, span_y):
                qx, qy = px, py
                for w in terms:
                    qx, qy = qx + w, qy + w
                if qx + top_x > 0 or qy + top_y > 0:
                    summed += [(c, qx, qy) for i in span_i for j in span_j
                               if cells[c := i * ns + j][0] == p]
    summed.sort()
    ltl, fired, mcl = _unit_ids(net.n_q, ns)[2], [], [0.0, 0.0]
    for c, *prefix in summed:
        for axis, q, a in zip((0, 1), prefix, cells[c][1:]):
            if (v := q + a) > 0:
                fired.append((ltl[c] + axis, v))
                mcl[axis] += v
    return NetState(state.mode, tuple(v if v > 0 else 0.0 for v in mcl), corner,
                    _net=net, fired=tuple(fired))


def _sparse_step(net: Network, state: NetState) -> NetState:
    """The exact step on the state's table: the corner is the MCL's grid cell,
    closed at x = 1 and y = 1, and only its LTL pair can fire.  Equal to the
    dense sweep on every MCL in [0, 1]^2; outside, where that is not
    proven, raises CellRangeError."""
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
    """The BSL staircase, x units then y units: on up to the corner."""
    pattern = []
    for ids, k in zip(_unit_ids(net.n_q, net.n_s), state.corner or (-1, -1)):
        pattern += [1] * (k + 1) + [0] * (len(ids) - 1 - k)
    return tuple(pattern)


def active_cell(net: Network, state: NetState) -> tuple[int, int] | None:
    """Cell of the positive LTL pair, None if all LTL units are silent."""
    if state.mode == "exact":  # the corner pair outputs the MCL, the rest are silent
        return state.corner if state.scaled[0] > 0 or state.scaled[2] > 0 else None
    cells = {divmod((u - net.ltl_ids(0, 0)[0]) // 2, net.n_s) for u, _ in state.fired}
    if len(cells) > 1:
        raise ValueError(f"multiple active LTL cells: {sorted(cells)}")
    return cells.pop() if cells else None


def run_network(net: Network, s0: NetState, max_steps: int) -> Trace[NetState]:
    """Iterate until the MCL reaches a fixed point or ``max_steps``."""
    return Trace.of(Run(partial(net_successor, net), s0, max_steps))


def net_trace_rows(net: Network, trace: Trace[NetState]) -> list[dict]:
    """CSV rows: exact values as num/den, floats with 17 significant digits."""
    rows = []
    for t, s in enumerate(trace.states):
        cx, cy = (rat_str(v) if s.mode == "exact" else f"{v:.17g}" for v in s.mcl)
        cell = active_cell(net, s)
        rows.append({"step": t, "c_x": cx, "c_y": cy,
                     "active_cell_i": "" if cell is None else cell[0],
                     "active_cell_j": "" if cell is None else cell[1],
                     "halted": trace.halted and t == trace.steps})
    return rows


def _unit_doc(u: Unit) -> dict:
    """A unit's entry in the document: the only form ``import_network`` accepts."""
    params: dict = {"activation": ACTIVATION[u.kind]}
    if u.index is not None:
        params["index"] = u.index
    if u.cell is not None:
        params["cell"] = [u.cell[0], u.cell[1]]
    return {"id": u.id, "kind": u.kind, "params": params}


def export_network(net: Network) -> dict:
    """Lossless JSON document (meta, units, sparse weight list)."""
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
        "units": [_unit_doc(u) for u in net.units],
        "weights": weights,
    }


# what parsing a malformed document can raise, besides NetworkFormatError
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError, OverflowError)


def import_network(doc: dict) -> Network:
    """Parse a serialized network and require the wiring its parameters give.

    After the unit count, each unit entry, sorted by id, must equal its
    canonical unit's ``_unit_doc``.  Then each cell's (lambda, a) is read
    off the document's MCL -> LTL and bias -> LTL edges, and the ``Network``
    of those and the document's h is constructed, which bounds them.  The
    document must hold exactly that network's weight dict: the first
    differing, missing or extra edge is reported.  Any malformed document
    raises NetworkFormatError.
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
    for entry, want in zip(unit_docs, map(_unit_doc, units)):
        if entry != want:
            raise NetworkFormatError(
                f"unit entry {want['id']} (by id) deviates from the canonical layout: "
                f"got {entry}, expected {want}")

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
