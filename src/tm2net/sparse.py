"""Certificate and tables of the sparse exact network step.

In exact mode ``network.net_step`` computes only what can be nonzero: the
BSL staircase corner from the sorted thresholds, the LTL pair at that
corner, and the MCL.  ``certify`` derives the tables that step reads from
the network's weights, and checks on the weights alone that the step
equals the dense sweep for every MCL in [0, 1]^2.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .network import ZERO, Network, NetworkFormatError, _unit_ids, unit_count


def certify(net: Network) -> tuple:
    """Thresholds and per-cell corner maps, read off the weights.

    The sparse step equals the dense sweep when:
    * the BSL and LTL units, which the dense sweep updates, sit at their
      canonical ids;
    * every BSL unit reads only its axis' MCL unit, with weight 1, and the
      bias, and the thresholds are monotone along each axis from at most 0,
      so the BSL output is a staircase with a corner cell;
    * every LTL unit reads only its axis' MCL unit, BSL units and the bias,
      and the maximum over [0, 1]^2 of its MCL and bias terms plus its
      largest BSL excitation from any staircase corner other than its own
      cell is <= 0, so it is silent off its corner;
    * each MCL unit sums exactly its axis' LTL units with weight 1.
    Returns (x thresholds, y thresholds, cells) with cells[i*n + j] =
    (lambda_x, c_x, lambda_y, c_y): the corner pair of cell (i, j) outputs
    ramp(lambda*c + c_axis) on each axis.  Raises NetworkFormatError when a
    condition fails.
    """
    bsl_x, bsl_y, ltl = _unit_ids(net.n_q, net.n_s)
    m, n, bias = len(bsl_x), len(bsl_y), net.bias_id

    def reject(why: str):
        raise NetworkFormatError(f"network fails the sparse-step certificate: {why}")

    if (net.n_units != unit_count(net.n_q, net.n_s)
            or net._bsl_ids != (*bsl_x, *bsl_y)
            or net._ltl_ids != tuple(range(ltl.start, bias))):
        reject("the BSL and LTL units deviate from the canonical layout")

    def thresholds(mcl: int, ids: range) -> tuple:
        out = []
        for u in ids:
            edges = dict(net._in_edges[u])
            if edges.pop(mcl, None) != 1 or not set(edges) <= {bias}:
                reject(f"BSL unit {u} must read MCL unit {mcl} with weight 1 "
                       "and the bias only")
            out.append(-edges.get(bias, ZERO))
        if out[0] > 0 or any(a > b for a, b in zip(out, out[1:])):
            reject(f"BSL thresholds on MCL unit {mcl} must be monotone "
                   "from at most 0")
        return tuple(out)

    th_x, th_y = thresholds(0, bsl_x), thresholds(1, bsl_y)

    for mcl in (0, 1):
        if net._in_edges[mcl] != tuple((t + mcl, 1) for t in ltl):
            reject(f"MCL unit {mcl} must sum exactly its LTL units with weight 1")

    # the LTL bounds are summed as integers over one common denominator
    scale = lcm(*(w.denominator for w in net.weights.values()))

    def scaled(w: Fraction) -> int:
        return w.numerator * (scale // w.denominator)

    cells = []
    for c, t0 in enumerate(ltl):
        i, j = divmod(c, n)
        cell = []
        for mcl, t in enumerate((t0, t0 + 1)):
            lam, beta, from_x, from_y = ZERO, 0, {}, {}
            for src, w in net._in_edges[t]:
                if src == mcl:
                    lam = w
                elif src == bias:
                    beta = scaled(w)
                elif src in bsl_x:
                    from_x[src - bsl_x.start] = scaled(w)
                elif src in bsl_y:
                    from_y[src - bsl_y.start] = scaled(w)
                else:
                    reject(f"LTL unit {t} reads unit {src}")
            own_x, off_x, top_x = _staircase_excitation(from_x, m, i)
            own_y, off_y, top_y = _staircase_excitation(from_y, n, j)
            if max(scaled(lam), 0) + beta + max(off_x + top_y, top_x + off_y) > 0:
                reject(f"LTL unit {t} of cell {(i, j)} can fire away from "
                       "its staircase corner")
            cell += (lam, Fraction(beta + own_x + own_y, scale))
        cells.append(tuple(cell))
    return th_x, th_y, tuple(cells)


def _staircase_excitation(weights: dict, size: int, own: int) -> tuple:
    """What one unit receives from one BSL axis, over all staircases.

    With the axis' units 0..k on (k from -1 to size-1) the unit receives
    P(k), the sum of ``weights`` (BSL index -> weight) up to k.  P changes
    only at weighted indices, so each run of equal values has both its ends
    among -1, size-1, w and w-1 for weighted w.  Returns (P(own), max of
    P(k) for k != own, max of P).
    """
    def prefix(k: int) -> int:
        return sum(w for idx, w in weights.items() if idx <= k)

    ends = {-1, size - 1, *weights, *(idx - 1 for idx in weights)}
    at_own = prefix(own)
    off = max(prefix(k) for k in ends if k != own)
    return at_own, off, max(at_own, off)
