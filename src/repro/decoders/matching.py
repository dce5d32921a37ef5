"""Minimum-weight perfect-matching decoder (paper §II-D).

Flagged detectors are matched pairwise (or to the boundary) so that the
total shortest-path weight is minimal; the correction applied to the raw
readout is the XOR of the logical parities along the matched paths.

Three exact matching engines:

* a bitmask dynamic program for up to :data:`_DP_LIMIT` events (covers
  virtually every shot of the paper's codes);
* above that, a native blossom kernel (``_blossom.c``, loaded by
  :mod:`.native`): a C port of NetworkX ``max_weight_matching`` run on
  the negated-weight event graph with per-event boundary copies that
  :func:`_nx_graph` builds;
* NetworkX ``max_weight_matching`` itself on that graph
  (:func:`_nx_match`) — the test reference, and the path taken when no
  C compiler is present (reported once per process as a
  ``decode.matcher.native_unavailable`` event).

The DP is exponential in the event count.  On the d=5, 10-round
strike workload's patterns, unpruned, it cost ~49 ms per pattern at 16
events and ~5 ms at 12 (one core of an Intel Xeon host).  So the DP
drops every pair that can never win: events ``i`` and ``j`` are only
paired when

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

Above the DP limit the engine must return *networkx's* matching, not
just a minimum-weight one.  Strike patterns are tie-heavy: two
minimum-cost matchings can differ in parity, and blossom's choice
between them depends on the graph and on every iteration order (a
sparse event graph decoded 11 of 96 strike patterns with 17–20 events
to a different parity).  Any other matcher would change stored
results.  So the kernel mirrors networkx step for step: the same
graph, node and adjacency insertion orders, dict iteration orders
(vertices, then live blossoms in creation order), LIFO queue, and the
same float operations in the same order, built without contraction or
fast-math.  It returns the same matching set as networkx, pair
orientation included (tested with hypothesis on unit, erased, graded
and hook-edge graphs, and pinned on a strike block).  On the strike's
patterns networkx costs ~11 ms at 17–20 events and ~18 ms at 21–24;
the kernel ~0.07 ms and ~0.10 ms.

Identical syndromes decode identically, so shots are deduplicated
before matching — a large win at low fault intensity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from .. import obs
from ..obs import prof as _prof
from . import native
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

#: pid that last reported a missing native kernel (one event a process).
_REPORTED_PID = None


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


def _nx_graph(events: Tuple[int, ...], dist: Sequence, bcol: int
              ) -> nx.Graph:
    """The dense blossom graph of a pattern: event ``i`` is node
    ``("e", i)``, its boundary copy ``("b", i)``; weights are negated
    distances.  Its insertion order is part of the contract the native
    kernel reproduces (``_blossom.c``)."""
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
    return g


def _nx_match(events: Tuple[int, ...], dist: Sequence, parity: Sequence,
              bcol: int) -> Tuple[float, int]:
    """Exact min-weight matching via NetworkX blossom on negated weights
    (dense event graph; tables indexed ``[u][v]`` as in :func:`_dp_match`)."""
    matching = nx.max_weight_matching(_nx_graph(events, dist, bcol),
                                      maxcardinality=True)
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


def _native_match(kernel, events: Tuple[int, ...], dist: np.ndarray,
                  parity: np.ndarray, bcol: int,
                  pairs: Optional[np.ndarray] = None) -> int:
    """Correction parity from the native blossom kernel, which matches
    exactly the graph :func:`_nx_graph` builds, with networkx's own
    algorithm and orders (``_blossom.c``).  ``dist``/``parity`` are the
    graph's C-contiguous float64 / uint8 tables.  ``pairs`` (int32,
    ``2k``) receives the matched pairs as networkx orients them, with
    vertex ``2i`` for ``("e", i)`` and ``2i + 1`` for ``("b", i)``."""
    rows, cols = dist.shape
    if not (dist.dtype == np.float64 and parity.dtype == np.uint8
            and parity.shape == dist.shape and dist.flags.c_contiguous
            and parity.flags.c_contiguous and 0 <= bcol < cols
            and 0 <= min(events) and max(events) < rows
            and (pairs is None or (pairs.dtype == np.int32
                                   and pairs.flags.c_contiguous
                                   and pairs.size >= 2 * len(events)))):
        raise ValueError("native blossom needs C-contiguous float64/uint8 "
                         "tables of one shape, in-range events and an "
                         "int32 pairs buffer of 2k")
    ev = np.array(events, dtype=np.int64)
    corr = kernel(len(events), ev.ctypes.data, dist.ctypes.data,
                  parity.ctypes.data, cols, bcol, _BOUNDARY_BIAS,
                  None if pairs is None else pairs.ctypes.data)
    if corr < 0:
        raise MemoryError("native blossom kernel: out of memory")
    return corr


def _blossom_kernel():
    """The native kernel, or ``None`` — then, once per process, a
    ``decode.matcher.native_unavailable`` event carries the reason."""
    global _REPORTED_PID
    kernel = native.kernel()
    if kernel is None and _REPORTED_PID != os.getpid():
        _REPORTED_PID = os.getpid()
        obs.event("decode.matcher.native_unavailable",
                  "blossom falls back to networkx", reason=native.error)
    return kernel


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
        graph = self.graph
        bcol = graph.num_nodes
        k = len(events)
        _OBS_EVENTS.observe(k)
        prof = _prof._ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        if k <= _DP_LIMIT:
            _OBS_DP.inc()
            dist, parity = graph.path_lists
            _, corr = _dp_match(events, dist, parity, bcol)
            stage = "dp"
        else:
            _OBS_BLOSSOM.inc()
            kernel = _blossom_kernel()
            if kernel is not None:
                corr = _native_match(kernel, events, graph.distances,
                                     graph.parities, bcol)
            else:
                dist, parity = graph.path_lists
                _, corr = _nx_match(events, dist, parity, bcol)
            stage = "blossom"
        if prof is not None:
            prof.stage(f"decode.matcher.{stage}", perf_counter() - t0,
                       under="decode.matcher")
        return corr
