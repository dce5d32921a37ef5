"""Minimum-weight perfect-matching decoder (paper §II-D).

Flagged detectors are matched pairwise (or to the boundary) so that the
total shortest-path weight is minimal; the correction applied to the raw
readout is the XOR of the logical parities along the matched paths.

Two exact matching engines:

* a bitmask dynamic program for up to :data:`_DP_LIMIT` events (covers
  virtually every shot of the paper's codes), and
* NetworkX ``max_weight_matching`` on the negated-weight event graph
  with per-event boundary copies, used for larger event sets.

The DP is exponential in the event count.  On the d=5, 10-round
strike workload's patterns, unpruned, it cost ~49 ms per pattern at 16
events and ~5 ms at 12, while blossom costs ~8 ms at 17 (one core of
an Intel Xeon host).  So the DP drops every pair that can never win:
events ``i`` and ``j`` are only paired when

    d(i, j) <= d_b(i) + d_b(j) + 2 * _BOUNDARY_BIAS + _PRUNE_SLACK,

with ``d_b`` the distance to the boundary.  A pair above that bound is
strictly worse than sending both events to the boundary, by more than
any float rounding in the DP's sums.  The DP only replaces its running
best on a strictly smaller cost, so a pruned pair could never have been
chosen: the DP returns the same ``(cost, parity)`` as the unpruned one,
bit for bit (property-tested against a verbatim copy of it).  The DP
walks per-event neighbour lists and reads distances from the graph's
cached Python-list tables (:attr:`DetectorGraph.path_lists`), so small
patterns pay no numpy set-up per call.  Pruned, the same patterns cost
~1.6 ms at 16 events and ~0.3 ms at 12.

Patterns above :data:`_DP_LIMIT` events keep the dense blossom graph.
A sparse event graph is faster, but blossom's tie-breaks depend on the
graph: a sparse prototype decoded 11 of 96 strike patterns with 17–20
events to a different parity, which would change stored results.

Identical syndromes decode identically, so shots are deduplicated
before matching — a large win at low fault intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import networkx as nx
import numpy as np

from .. import obs
from ..obs import prof as _prof
from .base import Decoder
from .detector_graph import DetectorGraph

#: Event-count threshold below which the exact bitmask DP is used.
_DP_LIMIT = 16

#: Tie-break: at equal weight, pairing two defects (one error chain) is
#: more probable than two independent boundary chains, so boundary
#: matches carry an epsilon penalty.
_BOUNDARY_BIAS = 1e-6

#: Float margin of the DP's pair pruning.  The DP's sums carry ~1e-12
#: of rounding at most (16 terms, costs far below 1e3); a pair must
#: lose by more than this to be dropped.
_PRUNE_SLACK = 1e-9

#: Event-count histogram buckets of matched patterns.
_EVENT_BOUNDS = (2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 32)

_OBS_DP = obs.counter("decode.matcher.dp")
_OBS_BLOSSOM = obs.counter("decode.matcher.blossom")
_OBS_EVENTS = obs.registry().histogram("decode.events", _EVENT_BOUNDS)

_INF = float("inf")


def _dp_match(events: Tuple[int, ...], dist: Sequence, parity: Sequence,
              bcol: int) -> Tuple[float, int]:
    """Exact min-weight matching via bitmask DP.

    Each event is either paired with another event or matched to the
    boundary.  ``dist``/``parity`` are the graph's list tables, indexed
    ``[u][v]``.  Returns ``(total weight, correction parity)``.
    """
    k = len(events)
    drows = [dist[e] for e in events]
    prows = [parity[e] for e in events]
    # Boundary option of event i: (d_b(i) + bias, parity to boundary).
    bcost = [row[bcol] + _BOUNDARY_BIAS for row in drows]
    bpar = [row[bcol] for row in prows]
    # nbrs[i]: (bit of j, d(i, j), parity(i, j)) for every j > i whose
    # pairing with i can still win, in ascending j — the unpruned DP's
    # candidate order, so ties resolve identically.
    nbrs: List[List[Tuple[int, float, int]]] = []
    for i in range(k):
        row = drows[i]
        prow = prows[i]
        lim = bcost[i] + _PRUNE_SLACK
        nb = []
        for j in range(i + 1, k):
            d = row[events[j]]
            if d < _INF and d <= lim + bcost[j]:
                nb.append((1 << j, d, prow[events[j]]))
        nbrs.append(nb)
    # memo[mask] = (cost, parity) for the unmatched set ``mask``.
    memo: Dict[int, Tuple[float, int]] = {0: (0.0, 0)}

    def solve(mask: int) -> Tuple[float, int]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        i = (mask & -mask).bit_length() - 1  # lowest unmatched event
        rem = mask ^ (1 << i)
        # Option 1: match i to the boundary (epsilon-penalised so ties
        # resolve toward defect pairing).
        rest_cost, rest_par = solve(rem)
        best_cost = bcost[i] + rest_cost
        best_par = bpar[i] ^ rest_par
        # Option 2: pair i with some j.
        for bit, d, p in nbrs[i]:
            if rem & bit:
                c, q = solve(rem ^ bit)
                c += d
                if c < best_cost:
                    best_cost = c
                    best_par = p ^ q
        memo[mask] = best = (best_cost, best_par)
        return best

    return solve((1 << k) - 1)


def _nx_match(events: Tuple[int, ...], dist: Sequence, parity: Sequence,
              bcol: int) -> Tuple[float, int]:
    """Exact min-weight matching via NetworkX blossom on negated weights
    (dense event graph; tables indexed ``[u][v]`` as in :func:`_dp_match`)."""
    k = len(events)
    g = nx.Graph()
    for i in range(k):
        row = dist[events[i]]
        g.add_node(("e", i))
        g.add_node(("b", i))
        g.add_edge(("e", i), ("b", i),
                   weight=-float(row[bcol]) - _BOUNDARY_BIAS)
        for j in range(i + 1, k):
            d = row[events[j]]
            if d < _INF:
                g.add_edge(("e", i), ("e", j), weight=-float(d))
            g.add_edge(("b", i), ("b", j), weight=0.0)
    matching = nx.max_weight_matching(g, maxcardinality=True)
    total = 0.0
    corr = 0
    for a, b in matching:
        if a[0] == "b" and b[0] == "b":
            continue
        if a[0] == "e" and b[0] == "e":
            u, v = events[a[1]], events[b[1]]
        else:
            u, v = events[(a if a[0] == "e" else b)[1]], bcol
        total += float(dist[u][v])
        corr ^= int(parity[u][v])
    return total, corr


@dataclass
class MWPMDecoder(Decoder):
    """MWPM decoder bound to a detector graph.

    ``use_final_data`` selects the qtcodes-style data-readout decode
    (see :func:`~repro.decoders.base.prepare_decode_inputs`); the graph
    must then carry ``rounds + 1`` rounds (handled by ``decoder_for``).
    ``cache_decodes`` enables the cross-batch syndrome-dedup cache.
    """

    graph: DetectorGraph
    use_final_data: bool = True
    cache_decodes: bool = True

    @property
    def name(self) -> str:
        return "mwpm"

    # ------------------------------------------------------------------
    def _decode_pattern(self, detector_bits: np.ndarray) -> int:
        """Decode one flattened detector pattern -> readout correction.

        Shortest-path distances respect the graph's edge weights, so a
        reweighted graph (burst-adaptive recovery) changes the matching
        through this one table."""
        events = tuple(np.flatnonzero(detector_bits).tolist())
        if not events:
            return 0
        dist, parity = self.graph.path_lists
        bcol = self.graph.num_nodes
        k = len(events)
        _OBS_EVENTS.observe(k)
        prof = _prof._ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        if k <= _DP_LIMIT:
            _OBS_DP.inc()
            _, corr = _dp_match(events, dist, parity, bcol)
            stage = "dp"
        else:
            _OBS_BLOSSOM.inc()
            _, corr = _nx_match(events, dist, parity, bcol)
            stage = "blossom"
        if prof is not None:
            prof.stage(f"decode.matcher.{stage}", perf_counter() - t0,
                       under="decode.matcher")
        return corr
