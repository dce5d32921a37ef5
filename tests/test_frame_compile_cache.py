"""Bit-identity of the shared frame compile.

``compile_frame_program`` shares the reference pass of a circuit whose
pass drew no randomness, and the fusion schedule of an op structure,
across calls.  These tests pin that a compile served from those caches
is the program a fresh, cache-cleared compile builds — op for op, with
dtypes — and that the callers' rng streams do not notice the sharing.
"""

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.experiments import fig8_architecture as f8
from repro.frames import program as fp
from repro.frames.program import compile_frame_program
from repro.injection.campaign import _build_noise, _prepared
from repro.injection.spec import CodeSpec, FaultSpec, InjectionTask
from repro.noise import run_batch_noisy
from repro.obs import prof
from repro.util.rng import frame_ref_seed


def clear_caches():
    fp._REFERENCES.clear()
    fp._PLANS.clear()


def context(task):
    """``(circuit, noise, reference seed)`` as the campaign compiles a
    task."""
    experiment, _, _ = _prepared(task.code, task.rounds, task.basis,
                                 task.arch, task.layout, task.decoder,
                                 task.readout)
    return (experiment.circuit, _build_noise(task, experiment),
            frame_ref_seed(task.seed))


def digest(program):
    """sha1 over every op (values and dtypes) and the metadata."""
    h = hashlib.sha1()
    for op in program.ops:
        for x in op:
            if isinstance(x, np.ndarray):
                h.update(str(x.dtype).encode())
                h.update(x.tobytes())
            else:
                h.update(repr((type(x).__name__, x)).encode())
        h.update(b"|")
    h.update(str(program.reference_record.dtype).encode())
    h.update(program.reference_record.tobytes())
    h.update(repr((program.num_qubits, program.num_cbits,
                   program.random_cbits, program.exact_reset_sites,
                   program.twirled_reset_sites,
                   program.num_channels)).encode())
    return h.hexdigest()


def assert_same_program(a, b):
    assert len(a.ops) == len(b.ops)
    for x, y in zip(a.ops, b.ops):
        assert len(x) == len(y)
        for u, v in zip(x, y):
            if isinstance(u, np.ndarray):
                assert isinstance(v, np.ndarray) and u.dtype == v.dtype
                np.testing.assert_array_equal(u, v)
            else:
                assert type(u) is type(v) and u == v
    assert a.reference_record.dtype == b.reference_record.dtype
    np.testing.assert_array_equal(a.reference_record, b.reference_record)
    assert a.random_cbits == b.random_cbits
    assert (a.exact_reset_sites, a.twirled_reset_sites) == \
        (b.exact_reset_sites, b.twirled_reset_sites)
    assert (a.num_qubits, a.num_cbits, a.num_channels) == \
        (b.num_qubits, b.num_cbits, b.num_channels)


def sweep_tasks():
    """A strided subset of the Fig. 8a sweep: 3 architectures, every
    fourth root, time samples 0 and 5 (seeded as the campaign seeds)."""
    archs = tuple(a for a in f8.REP_ARCHS if a.name != "brooklyn"
                  and a.name != "cambridge")
    campaign = f8.build_campaign(shots=64, configs=((f8.REP_CODE, archs),),
                                 root_seed=3, time_indices=(0, 5))
    return campaign._seeded()[::4]


def xxzz_tasks():
    """Fig. 8b points: the reference pass takes random branches."""
    archs = (f8.XXZZ_ARCHS[0], f8.XXZZ_ARCHS[2])
    campaign = f8.build_campaign(shots=64, configs=((f8.XXZZ_CODE, archs),),
                                 root_seed=5, time_indices=(3,),
                                 max_roots=2)
    return campaign._seeded()


D5 = CodeSpec("xxzz", (5, 5))
#: The paper's d=5 10-round strike point (static recovery).
STRIKE = InjectionTask(
    code=D5, rounds=10, intrinsic_p=0.005, seed=7202,
    fault=FaultSpec(kind="radiation", root_qubit=D5.build().lattice
                    .data_index(2, 2), strike_round=4, intensity=0.5))
#: No fault, d=5: a random-branch reference pass.
NOFAULT = InjectionTask(code=D5, rounds=5, intrinsic_p=5e-4, seed=2024)
ERASURE = InjectionTask(
    code=CodeSpec("repetition", (5, 1)), rounds=3, intrinsic_p=1e-3,
    fault=FaultSpec(kind="erasure", qubits=(0, 3), probability=0.3),
    seed=5)
REP = InjectionTask(
    code=CodeSpec("repetition", (5, 1)), rounds=3, intrinsic_p=0.01,
    fault=FaultSpec(kind="radiation", root_qubit=1, time_index=2), seed=9)


def counter(name):
    return obs.registry().snapshot()["counters"].get(name, 0)


class TestSharedEqualsCold:
    @pytest.mark.parametrize("tasks", [
        sweep_tasks, xxzz_tasks,
        lambda: [ERASURE, ERASURE, STRIKE, STRIKE, NOFAULT, NOFAULT],
    ], ids=["fig8a-sweep", "fig8b-xxzz", "erasure-strike-nofault"])
    def test_shared_compile_equals_cold(self, tasks):
        tasks = tasks()
        contexts = [context(t) for t in tasks]
        clear_caches()
        shared = [compile_frame_program(c, n, rng=s) for c, n, s in contexts]
        for (c, n, s), program in zip(contexts, shared):
            clear_caches()
            assert_same_program(program, compile_frame_program(c, n, rng=s))

    def test_sweep_shares_reference_and_plan(self):
        contexts = [context(t) for t in sweep_tasks()]
        circuits = {id(c) for c, _, _ in contexts}
        clear_caches()
        before = {k: counter(f"frames.compile.{k}") for k in
                  ("reference_hit", "reference_miss", "plan_hit",
                   "plan_miss")}
        for c, n, s in contexts:
            compile_frame_program(c, n, rng=s)
        moved = {k: counter(f"frames.compile.{k}") - v
                 for k, v in before.items()}
        # One miss per circuit; every other point is served shared.
        assert moved["reference_miss"] == len(circuits)
        assert moved["plan_miss"] == len(circuits)
        assert moved["reference_hit"] == moved["plan_hit"] \
            == len(contexts) - len(circuits)

    def test_random_branch_pass_is_not_shared(self):
        c, n, s = context(NOFAULT)
        clear_caches()
        first = compile_frame_program(c, n, rng=s)
        assert not first.deterministic_reference
        misses = counter("frames.compile.reference_miss")
        hits = counter("frames.compile.reference_hit")
        # Another seed draws another reference sample.
        other = compile_frame_program(c, n, rng=s + 1)
        assert counter("frames.compile.reference_miss") == misses + 1
        assert counter("frames.compile.reference_hit") == hits
        assert not np.array_equal(first.reference_record,
                                  other.reference_record)
        assert len(fp._REFERENCES) == 0

    def test_appended_gate_misses(self):
        circuit, noise, seed = context(REP)
        circuit = circuit.copy()
        clear_caches()
        compile_frame_program(circuit, noise, rng=seed)
        misses = counter("frames.compile.reference_miss")
        base = compile_frame_program(circuit, noise, rng=seed)
        assert counter("frames.compile.reference_miss") == misses
        circuit.h(0)
        grown = compile_frame_program(circuit, noise, rng=seed)
        assert counter("frames.compile.reference_miss") == misses + 1
        assert len(grown.ops) > len(base.ops)
        clear_caches()
        assert_same_program(grown,
                            compile_frame_program(circuit, noise, rng=seed))


class TestPinnedPrograms:
    """Digests of programs compiled by the single-pass compiler the
    shared one replaced: the split into walk, reference and fusion
    steps changes no op, dtype or reference bit."""

    PINNED = {
        "sweep-point": "62af41b8771ccc6a34775dfa63096ffcbf43a054",
        "erasure": "873c52520975df42c814c002bc0fdc154673126e",
        "strike": "50406ccd7d199ee5eaf9b6907f0ef05421234143",
        "nofault": "eb54a751ecbb2c886f8ed17e27a6b7f40dab7230",
    }

    @staticmethod
    def task(name):
        return {"sweep-point": sweep_tasks()[1], "erasure": ERASURE,
                "strike": STRIKE, "nofault": NOFAULT}[name]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest(self, name):
        c, n, s = context(self.task(name))
        for _ in range(2):  # cold, then shared where the pass drew nothing
            assert digest(compile_frame_program(c, n, rng=s)) \
                == self.PINNED[name]


class TestCallerRng:
    @pytest.mark.parametrize("task", [REP, ERASURE, NOFAULT],
                             ids=["rep", "erasure", "nofault"])
    @pytest.mark.parametrize("backend", ["auto", "frames"])
    def test_run_batch_noisy_cached_equals_cold(self, task, backend):
        circuit, noise, _ = context(task)
        runs = []
        for cold in (True, False):
            if cold:
                clear_caches()
            rng = np.random.default_rng(41)
            records = run_batch_noisy(circuit, noise, 200, rng=rng,
                                      backend=backend)
            runs.append((records, rng.bit_generator.state))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]


class TestCompileObservability:
    def test_one_counter_increment_per_compile(self):
        c, n, s = context(REP)
        clear_caches()
        names = ("reference_hit", "reference_miss", "plan_hit", "plan_miss")
        before = [counter(f"frames.compile.{k}") for k in names]
        compile_frame_program(c, n, rng=s)
        compile_frame_program(c, n, rng=s)
        moved = [counter(f"frames.compile.{k}") - b
                 for k, b in zip(names, before)]
        assert moved == [1, 1, 1, 1]

    def test_profiler_stages_nest_under_compile(self):
        c, n, s = context(REP)
        with prof.profile() as p:
            compile_frame_program(c, n, rng=s)
        snap = p.snapshot()
        for step in ("walk", "reference", "fuse"):
            assert snap["stages"][f"compile.{step}"]["calls"] == 1
            assert f"compile/compile.{step}" in snap["paths"]
        steps = sum(snap["stages"][f"compile.{k}"]["total_s"]
                    for k in ("walk", "reference", "fuse"))
        assert steps <= snap["stages"]["compile"]["total_s"] + 1e-6
        assert "compile.reference" in prof.render_profile(snap)
