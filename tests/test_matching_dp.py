"""Bit-identity of the pruned matching DP against the unpruned one.

``_dp_match`` drops event pairs that can never beat sending both events
to the boundary.  The DP only replaces its running best on a strictly
smaller cost, so pruning must leave every ``(cost, parity)`` unchanged.
The oracle below is the unpruned DP verbatim, on numpy tables.
"""

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import XXZZCode
from repro.decoders import DetectorGraph
from repro.decoders.detector_graph import ERASED_WEIGHT
from repro.decoders.matching import _BOUNDARY_BIAS, _DP_LIMIT, _dp_match


def oracle_dp_match(events: Tuple[int, ...], dist: np.ndarray,
                    parity: np.ndarray, bcol: int) -> Tuple[float, int]:
    """The unpruned bitmask DP: every pair is a candidate."""
    k = len(events)
    full = (1 << k) - 1
    memo: Dict[int, Tuple[float, int]] = {0: (0.0, 0)}

    def solve(mask: int) -> Tuple[float, int]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        i = (mask & -mask).bit_length() - 1  # lowest unmatched event
        ei = events[i]
        rest_cost, rest_par = solve(mask & ~(1 << i))
        best = (dist[ei, bcol] + _BOUNDARY_BIAS + rest_cost,
                int(parity[ei, bcol]) ^ rest_par)
        rem = mask & ~(1 << i)
        mm = rem
        while mm:
            j = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            ej = events[j]
            d = dist[ei, ej]
            if np.isfinite(d):
                c, p = solve(rem & ~(1 << j))
                cand = (d + c, int(parity[ei, ej]) ^ p)
                if cand[0] < best[0]:
                    best = cand
        memo[mask] = best
        return best

    return solve(full)


def _erased(graph: DetectorGraph) -> DetectorGraph:
    """A strike-style reweight: near-free edges inside a block of
    plaquettes and rounds, unit weight elsewhere."""
    P = graph.num_plaquettes
    hot = {graph.node_id(r, p) for r in range(2, min(graph.rounds, 6))
           for p in range(P // 3, P // 2 + 2)}
    return graph.reweighted(
        lambda e: ERASED_WEIGHT if (e.u in hot or e.v in hot) else 1.0)


def _graded(graph: DetectorGraph) -> DetectorGraph:
    """Non-integer weights (model-inverted recovery's graded graphs)."""
    return graph.reweighted(
        lambda e: 0.25 + ((e.u * 7 + e.v * 13) % 5) * 0.4)


@lru_cache(maxsize=None)
def graphs():
    out = []
    for d, rounds in ((3, 4), (5, 10)):
        static = DetectorGraph(XXZZCode(d, d), rounds)
        out += [static, _erased(static), _graded(static)]
    return tuple(out)


@st.composite
def event_sets(draw):
    graph = draw(st.sampled_from(graphs()))
    n = graph.num_nodes
    k = draw(st.integers(1, min(_DP_LIMIT, n)))
    if draw(st.booleans()):
        # Clustered, like a strike: events within a window of nodes, so
        # many pairs survive the pruning and ties are common.
        lo = draw(st.integers(0, max(0, n - 3 * k)))
        pool = list(range(lo, min(n, lo + 3 * k)))
    else:
        pool = list(range(n))
    events = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k,
                           unique=True))
    return graph, tuple(sorted(events))


class TestPrunedDPBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(case=event_sets())
    def test_same_cost_and_parity_as_unpruned(self, case):
        graph, events = case
        bcol = graph.num_nodes
        want = oracle_dp_match(events, graph.distances, graph.parities,
                               bcol)
        dist, parity = graph.path_lists
        got = _dp_match(events, dist, parity, bcol)
        assert got[0] == want[0]
        assert got[1] == want[1]

    @pytest.mark.parametrize("gi", range(6))
    def test_dense_cluster_at_the_limit(self, gi):
        """Sixteen adjacent events: the DP's slowest, tie-richest case."""
        graph = graphs()[gi]
        n = graph.num_nodes
        k = min(_DP_LIMIT, n)
        for lo in (0, (n - k) // 2, n - k):
            events = tuple(range(lo, lo + k))
            want = oracle_dp_match(events, graph.distances,
                                   graph.parities, graph.num_nodes)
            dist, parity = graph.path_lists
            assert _dp_match(events, dist, parity, graph.num_nodes) == want
