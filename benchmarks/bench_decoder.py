"""Decoder benchmarks: MWPM vs union-find (DESIGN.md ablation).

MWPM is the paper's decoder (best accuracy/latency trade-off, §II-D);
union-find is the cited near-linear-time alternative.  The bench
measures batch decode throughput on identical noisy records and prints
the accuracy comparison.  ``test_strike_blossom_native_vs_networkx``
times the matcher's blossom engines on the d=5 strike's dense patterns.
"""

import time

import numpy as np
import pytest

from conftest import bench_bar, bench_report
from repro.codes import RepetitionCode, XXZZCode, build_memory_experiment
from repro.decoders import decoder_for, native, prepare_decode_inputs
from repro.decoders.matching import _DP_LIMIT, _native_match, _nx_match
from repro.injection.campaign import _task_context
from repro.injection.spec import CodeSpec, FaultSpec, InjectionTask
from repro.noise import DepolarizingNoise, NoiseModel, run_batch_noisy

SHOTS = 2000


@pytest.fixture(scope="module")
def noisy_records():
    exp = build_memory_experiment(XXZZCode(3, 3))
    noise = NoiseModel([DepolarizingNoise(0.02)])
    rec = run_batch_noisy(exp.circuit, noise, SHOTS, rng=11)
    return exp, rec


def test_mwpm_decode(benchmark, noisy_records):
    exp, rec = noisy_records
    decoder = decoder_for(exp, "mwpm")

    def run():
        return decoder.decode_batch(exp, rec)

    result = benchmark(run)
    assert result.num_shots == SHOTS


def test_unionfind_decode(benchmark, noisy_records):
    exp, rec = noisy_records
    decoder = decoder_for(exp, "union-find")

    def run():
        return decoder.decode_batch(exp, rec)

    benchmark(run)


def test_decoder_accuracy_ablation(benchmark, noisy_records, capsys):
    """Accuracy row: MWPM vs union-find on the same records."""
    exp, rec = noisy_records
    mwpm = benchmark.pedantic(
        lambda: decoder_for(exp, "mwpm").decode_batch(exp, rec),
        rounds=1, iterations=1)
    uf = decoder_for(exp, "union-find").decode_batch(exp, rec)
    with capsys.disabled():
        print(f"\n[ablation] xxzz-(3,3) p=2%: "
              f"mwpm LER={mwpm.logical_error_rate:.4f}  "
              f"union-find LER={uf.logical_error_rate:.4f}")
    assert mwpm.logical_error_rate <= uf.logical_error_rate + 0.03


def test_mwpm_large_repetition(benchmark):
    """Decode the biggest repetition code of Fig. 6 under heavy noise
    (stresses the blossom fallback for dense event sets)."""
    exp = build_memory_experiment(RepetitionCode(15))
    noise = NoiseModel([DepolarizingNoise(0.05)])
    rec = run_batch_noisy(exp.circuit, noise, 500, rng=13)
    decoder = decoder_for(exp, "mwpm")

    def run():
        return decoder.decode_batch(exp, rec)

    benchmark(run)


def test_readout_mode_ablation(benchmark, capsys):
    """DESIGN.md ablation: ancilla-parity vs data-readout decoding."""
    exp = build_memory_experiment(RepetitionCode(5))
    noise = NoiseModel([DepolarizingNoise(0.01)])
    rec = run_batch_noisy(exp.circuit, noise, SHOTS, rng=17)
    ancilla = benchmark.pedantic(
        lambda: decoder_for(exp, use_final_data=False).decode_batch(exp, rec),
        rounds=1, iterations=1)
    data = decoder_for(exp, use_final_data=True).decode_batch(exp, rec)
    with capsys.disabled():
        print(f"\n[ablation] rep-(5,1) p=1%: ancilla-readout "
              f"LER={ancilla.logical_error_rate:.4f}  data-readout "
              f"LER={data.logical_error_rate:.4f}")
    assert data.logical_error_rate <= ancilla.logical_error_rate + 0.02


def _strike_patterns():
    """The distinct blossom-bound (k > 16) detector patterns of one
    512-shot block of the paper's d=5, 10-round strike point."""
    code = CodeSpec("xxzz", (5, 5))
    fault = FaultSpec(kind="radiation",
                      root_qubit=code.build().lattice.data_index(2, 2),
                      strike_round=4, intensity=0.5)
    task = InjectionTask(code=code, fault=fault, rounds=10,
                         intrinsic_p=0.005, decoder="mwpm",
                         backend="tableau", shots=512, seed=7202)
    experiment, decoder, noise = _task_context(task)[:3]
    records = run_batch_noisy(experiment.circuit, noise, 512, rng=7202,
                              backend="tableau")
    det, _ = prepare_decode_inputs(experiment, records, decoder.graph,
                                   decoder.use_final_data)
    rows = np.unique(det.reshape(len(det), -1), axis=0)
    events = [tuple(np.flatnonzero(r).tolist()) for r in rows]
    return decoder.graph, [e for e in events if len(e) > _DP_LIMIT]


def test_strike_blossom_native_vs_networkx(benchmark, capsys):
    """Native blossom kernel vs networkx on the same strike patterns:
    identical parities, and >= 10x faster (the kernel is a port of
    networkx's algorithm, so only speed may differ)."""
    kernel = native.kernel()
    assert kernel is not None, native.error
    graph, patterns = _strike_patterns()
    assert len(patterns) > 50
    dist, parity = graph.distances, graph.parities
    lists = graph.path_lists
    bcol = graph.num_nodes

    t0 = time.perf_counter()
    want = [_nx_match(e, *lists, bcol)[1] for e in patterns]
    nx_s = time.perf_counter() - t0

    got = benchmark.pedantic(
        lambda: [_native_match(kernel, e, dist, parity, bcol)
                 for e in patterns], rounds=3, iterations=1)
    native_s = benchmark.stats.stats.min
    assert got == want
    speedup = nx_s / native_s
    bench_report(
        benchmark, capsys,
        f"\n[blossom] {len(patterns)} strike patterns (k=17.."
        f"{max(map(len, patterns))}): networkx {1e3 * nx_s / len(patterns):.2f}"
        f" ms/pattern, native {1e3 * native_s / len(patterns):.3f} "
        f"ms/pattern, x{speedup:.0f}",
        patterns=len(patterns),
        networkx_ms_per_pattern=1e3 * nx_s / len(patterns),
        native_ms_per_pattern=1e3 * native_s / len(patterns),
        speedup=speedup)
    bar = bench_bar(10.0, 5.0)
    assert speedup >= bar, f"native blossom speedup {speedup:.1f}x < {bar}x"
