"""The native blossom kernel against networkx, and its fallback.

``_blossom.c`` ports networkx's ``max_weight_matching`` and runs it on
the graph :func:`repro.decoders.matching._nx_graph` builds.  Blossom's
tie-breaks depend on iteration orders and float arithmetic, so the
contract is the *same matching set*, pair orientation included, not
just the same cost.  The native cases skip only when no C compiler is
installed; a compiler that is present but fails is a test failure.
"""

import hashlib
import shutil
from functools import lru_cache

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.codes import XXZZCode
from repro.decoders import DetectorGraph, MWPMDecoder, matching, native
from repro.decoders.detector_graph import ERASED_WEIGHT
from repro.decoders.matching import _DP_LIMIT, _native_match, _nx_graph
from repro.injection.campaign import (_prepared, _task_context,
                                      iter_task_chunks)
from repro.injection.spec import CodeSpec, FaultSpec, InjectionTask

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler")

#: sha1 of the strike_d5 static+reweight blossom-bound patterns of the
#: first 512-shot block (279 of them) and their parities, as networkx
#: decodes them: computed before the kernel existed, when every such
#: pattern went through ``_nx_match``.
STRIKE_BLOCK_SHA1 = "5da414e3978c7ab1741e5cc85118b1bc91c8df03"
#: That block's (errors, raw errors, corrections), static then reweight.
STRIKE_BLOCK_COUNTS = [(188, 229, 225), (193, 229, 226)]


def _erased(graph):
    P = graph.num_plaquettes
    hot = {graph.node_id(r, p) for r in range(2, min(graph.rounds, 6))
           for p in range(P // 3, P // 2 + 2)}
    return graph.reweighted(
        lambda e: ERASED_WEIGHT if (e.u in hot or e.v in hot) else 1.0)


def _graded(graph):
    return graph.reweighted(
        lambda e: 0.25 + ((e.u * 7 + e.v * 13) % 5) * 0.4)


@lru_cache(maxsize=None)
def graphs():
    """Unit-weight (tie-heavy), erased, graded and hook-edge graphs
    with room for 40 events."""
    out = []
    for d, rounds in ((3, 12), (5, 6)):
        static = DetectorGraph(XXZZCode(d, d), rounds)
        hooks = DetectorGraph(XXZZCode(d, d), rounds, hook_edges=True)
        out += [static, _erased(static), _graded(static), hooks,
                _erased(hooks)]
    return tuple(out)


def kernel():
    fn = native.kernel()
    assert fn is not None, native.error
    return fn


def native_set(graph, events):
    """The kernel's matching as networkx's set of node tuples."""
    pairs = np.zeros(2 * len(events), dtype=np.int32)
    corr = _native_match(kernel(), events, graph.distances, graph.parities,
                         graph.num_nodes, pairs)
    node = lambda v: ("b" if v & 1 else "e", int(v) >> 1)  # noqa: E731
    return corr, {(node(pairs[2 * i]), node(pairs[2 * i + 1]))
                  for i in range(len(events))}


def nx_result(graph, events):
    dist, parity = graph.path_lists
    g = _nx_graph(events, dist, graph.num_nodes)
    return (nx.max_weight_matching(g, maxcardinality=True),
            matching._nx_match(events, dist, parity, graph.num_nodes)[1])


@st.composite
def patterns(draw):
    """A graph and k=17..40 of its nodes: scattered, or packed into a
    window (a strike's dense cluster, where ties abound)."""
    graph = draw(st.sampled_from(graphs()))
    n = graph.num_nodes
    k = draw(st.integers(_DP_LIMIT + 1, 40))
    if draw(st.booleans()):
        nodes = draw(st.lists(st.integers(0, n - 1), min_size=k,
                              max_size=k, unique=True))
    else:
        lo = draw(st.integers(0, n - min(n, k + 8)))
        window = range(lo, min(n, lo + k + 8))
        nodes = draw(st.lists(st.sampled_from(window), min_size=k,
                              max_size=k, unique=True))
    return graph, tuple(sorted(nodes))


@needs_cc
class TestNativeEqualsNetworkx:
    @settings(max_examples=60, deadline=None)
    @given(patterns())
    def test_same_matching_set_and_parity(self, case):
        graph, events = case
        corr, got = native_set(graph, events)
        want, want_corr = nx_result(graph, events)
        assert got == want
        assert corr == want_corr

    def test_unreachable_events_keep_networkx_node_order(self):
        """An infinite distance drops the edge, so networkx adds that
        event's node late; the kernel must iterate it late too."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 40
            dist = rng.integers(1, 5, size=(n, n + 1)).astype(np.float64)
            dist[:, :n] = np.minimum(dist[:, :n], dist[:, :n].T)
            cut = rng.random((n, n)) < 0.3
            cut |= cut.T
            dist[:, :n][cut] = np.inf
            parity = rng.integers(0, 2, size=(n, n + 1)).astype(np.uint8)
            events = tuple(sorted(rng.choice(n, 24, replace=False)
                                  .tolist()))
            pairs = np.zeros(48, dtype=np.int32)
            corr = _native_match(kernel(), events, dist, parity, n, pairs)
            want = nx.max_weight_matching(
                _nx_graph(events, dist.tolist(), n), maxcardinality=True)
            node = lambda v: ("b" if v & 1 else "e", int(v) >> 1)  # noqa
            assert {(node(pairs[2 * i]), node(pairs[2 * i + 1]))
                    for i in range(24)} == want
            assert corr == matching._nx_match(
                events, dist.tolist(), parity.tolist(), n)[1]


@needs_cc
def test_rejects_tables_it_cannot_read():
    """Pointers go to C unchecked, so their layout is checked first."""
    graph = graphs()[0]
    dist, parity = graph.distances, graph.parities
    events = tuple(range(_DP_LIMIT + 1))
    bcol = graph.num_nodes
    bad = [(np.asfortranarray(dist), parity, events, bcol),
           (dist.astype(np.float32), parity, events, bcol),
           (dist, parity.astype(np.int64), events, bcol),
           (dist, parity, events[:-1] + (dist.shape[0],), bcol),
           (dist, parity, events, bcol + 1)]
    for args in bad:
        with pytest.raises(ValueError):
            _native_match(kernel(), args[2], args[0], args[1], args[3])
    with pytest.raises(ValueError):
        _native_match(kernel(), events, dist, parity, bcol,
                      np.zeros(2 * len(events) - 1, dtype=np.int32))


def strike_tasks():
    """The d=5, 10-round strike point, static and reweight (the
    benchmark's strike workload)."""
    code = CodeSpec("xxzz", (5, 5))
    fault = FaultSpec(kind="radiation",
                      root_qubit=code.build().lattice.data_index(2, 2),
                      strike_round=4, intensity=0.5)
    return [InjectionTask(code=code, fault=fault, rounds=10,
                          intrinsic_p=0.005, decoder="mwpm",
                          backend="auto", recovery=policy, shots=512,
                          seed=7202)
            for policy in ("static", "reweight")]


def blossom_patterns(monkeypatch, tasks, shots=512):
    """Run one block of each task from cold caches; returns the chunks
    and every ``(events, parity)`` that went above the DP limit."""
    seen = []
    decode = MWPMDecoder._decode_pattern

    def recording(self, bits):
        corr = decode(self, bits)
        events = tuple(np.flatnonzero(bits).tolist())
        if len(events) > _DP_LIMIT:
            seen.append((events, corr))
        return corr

    monkeypatch.setattr(MWPMDecoder, "_decode_pattern", recording)
    _prepared.cache_clear()
    _task_context.cache_clear()
    try:
        chunks = [next(iter_task_chunks(t, start_shot=0, chunk_shots=shots))
                  for t in tasks]
    finally:
        _prepared.cache_clear()
        _task_context.cache_clear()
    return [(c.errors, c.raw_errors, c.corrections_applied)
            for c in chunks], seen


def digest(seen):
    return hashlib.sha1(repr(seen).encode()).hexdigest()


@needs_cc
def test_strike_block_parities_pinned(monkeypatch):
    kernel()
    counts, seen = blossom_patterns(monkeypatch, strike_tasks())
    assert len(seen) == 279
    assert counts == STRIKE_BLOCK_COUNTS
    assert digest(seen) == STRIKE_BLOCK_SHA1


@pytest.fixture()
def no_kernel(monkeypatch, tmp_path):
    """The loader fails for real: the C source is missing."""
    monkeypatch.setattr(native, "_SRC", tmp_path / "missing.c")
    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setattr(native, "error", None)
    monkeypatch.setattr(matching, "_REPORTED_PID", None)
    obs.reset()
    yield
    obs.reset()


def test_fallback_uses_networkx_and_reports_once(monkeypatch, no_kernel):
    called = []
    nx_match = matching._nx_match

    def counting(*args):
        called.append(args[0])
        return nx_match(*args)

    monkeypatch.setattr(matching, "_nx_match", counting)
    graph = graphs()[5]
    decoder = MWPMDecoder(graph)
    rng = np.random.default_rng(3)
    for _ in range(3):
        bits = np.zeros(graph.num_nodes, dtype=np.uint8)
        bits[rng.choice(graph.num_nodes, 20, replace=False)] = 1
        decoder._decode_pattern(bits)
    assert len(called) == 3
    assert native.kernel() is None and "FileNotFoundError" in native.error
    counts = obs.registry().event_counts
    assert counts["decode.matcher.native_unavailable"] == 1
    event = [e for e in obs.registry().recent_events
             if e["kind"] == "decode.matcher.native_unavailable"][0]
    assert "missing.c" in event["reason"]


def test_fallback_counts_unchanged(monkeypatch, no_kernel):
    """Through the fallback a strike block decodes to the pinned counts
    and parities, and the fallback is reported once."""
    counts, seen = blossom_patterns(monkeypatch, strike_tasks())
    assert native.kernel() is None
    assert counts == STRIKE_BLOCK_COUNTS
    assert digest(seen) == STRIKE_BLOCK_SHA1
    assert obs.registry().event_counts[
        "decode.matcher.native_unavailable"] == 1


@needs_cc
def test_build_cached_by_source_hash(monkeypatch, tmp_path):
    """The build lands in $XDG_CACHE_HOME/repro under the source+flags
    sha1, with no temp file left behind, and loads from there."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setattr(native, "error", None)
    assert native.kernel() is not None, native.error
    built = sorted(p.name for p in (tmp_path / "repro").iterdir())
    assert len(built) == 1
    assert built[0].startswith("blossom-") and built[0].endswith(".so")
    monkeypatch.setattr(native, "_kernel", None)
    assert native.kernel() is not None
    assert sorted(p.name for p in (tmp_path / "repro").iterdir()) == built
