"""Cross-validation of the three simulators.

The single-shot tableau simulator is checked against the dense
statevector simulator (exact oracle); the batched simulator is checked
against the single-shot one with forced measurement outcomes (exact
trajectory equality) and statistically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, GateType
from repro.stabilizer import (
    BatchTableauSimulator,
    TableauSimulator,
    random_clifford_circuit,
    run_shot,
)
from repro.statevector import StatevectorSimulator


class TestTableauVsStatevector:
    @pytest.mark.parametrize("seed", range(8))
    def test_stabilizers_have_unit_expectation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        circuit = random_clifford_circuit(n, 40, rng=rng)
        ts = TableauSimulator(n, rng=1)
        ts.run(circuit)
        sv = StatevectorSimulator(n, rng=1)
        sv.run(circuit)
        for stab in ts.stabilizers():
            assert sv.expectation(stab) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_measurements_agree(self):
        c = Circuit(3).x(0).cx(0, 1).measure(0, 0).measure(1, 1).measure(2, 2)
        expected = {0: 1, 1: 1, 2: 0}
        assert TableauSimulator(3, rng=0).run(c) == expected
        assert StatevectorSimulator(3, rng=0).run(c) == expected

    def test_measurement_probability_agreement(self):
        # qubit in |+>: both simulators should measure ~50/50.
        c = Circuit(1).h(0).measure(0, 0)
        t_ones = sum(TableauSimulator(1, rng=s).run(c)[0] for s in range(400))
        s_ones = sum(StatevectorSimulator(1, rng=s).run(c)[0]
                     for s in range(400))
        assert abs(t_ones - 200) < 60
        assert abs(s_ones - 200) < 60

    def test_reset_in_both(self):
        c = Circuit(2).h(0).cx(0, 1).reset(0).measure(0, 0)
        for seed in range(10):
            assert TableauSimulator(2, rng=seed).run(c)[0] == 0
            assert StatevectorSimulator(2, rng=seed).run(c)[0] == 0


class TestBatchVsSingle:
    @pytest.mark.parametrize("seed", range(10))
    def test_forced_trajectories_identical(self, seed):
        """Batch B=1 and single-shot agree gate by gate when random
        measurement outcomes are forced to match."""
        circuit = random_clifford_circuit(4, 60, rng=seed,
                                          measure_prob=0.08, reset_prob=0.05)
        ts = TableauSimulator(4, rng=0)
        bs = BatchTableauSimulator(4, 1, rng=seed * 13 + 1)
        for gate in circuit:
            if gate.gate_type is GateType.MEASURE:
                out_b = int(bs.measure(gate.qubits[0])[0])
                out_s = ts.tableau.measure(gate.qubits[0], ts.rng,
                                           forced_outcome=out_b)
                assert out_s == out_b
            elif gate.gate_type is GateType.RESET:
                out_b = int(bs.measure(gate.qubits[0])[0])
                if out_b:
                    bs.x_gate(gate.qubits[0])
                out_s = ts.tableau.measure(gate.qubits[0], ts.rng,
                                           forced_outcome=out_b)
                if out_s:
                    ts.tableau.x_gate(gate.qubits[0])
            else:
                ts.apply(gate)
                bs.apply(gate)
            single = ts.tableau
            batch = bs.shot_tableau(0)
            assert np.array_equal(single.x, batch.x)
            assert np.array_equal(single.z, batch.z)
            assert np.array_equal(single.r, batch.r)

    def test_batch_marginals_match_reference(self):
        circuit = random_clifford_circuit(4, 60, rng=12,
                                          measure_prob=0.08, reset_prob=0.05)
        rec = BatchTableauSimulator(4, 3000, rng=7).run(circuit)
        got = rec.mean(axis=0)
        ref = np.zeros(circuit.num_cbits)
        for s in range(600):
            r = TableauSimulator(4, rng=900 + s).run(circuit)
            for k, v in r.items():
                ref[k] += v
        ref /= 600
        assert np.all(np.abs(got - ref) < 0.08)

    def test_batch_invariants_after_run(self):
        circuit = random_clifford_circuit(5, 80, rng=3, measure_prob=0.1,
                                          reset_prob=0.05)
        bs = BatchTableauSimulator(5, 64, rng=5)
        bs.run(circuit)
        for shot in range(0, 64, 7):
            assert bs.shot_tableau(shot).is_valid()


class TestBatchMaskedOps:
    def test_masked_x(self):
        bs = BatchTableauSimulator(1, 10, rng=0)
        mask = np.zeros(10, dtype=bool)
        mask[:5] = True
        bs.x_gate(0, mask)
        assert list(bs.measure(0)) == [1] * 5 + [0] * 5

    def test_masked_h_collapse_split(self):
        bs = BatchTableauSimulator(1, 2000, rng=1)
        mask = np.zeros(2000, dtype=bool)
        mask[:1000] = True
        bs.h(0, mask)
        out = bs.measure(0)
        assert out[1000:].sum() == 0          # untouched shots stay |0>
        assert 380 < out[:1000].sum() < 620   # masked shots random

    def test_masked_measure_leaves_rest_untouched(self):
        bs = BatchTableauSimulator(1, 4, rng=2)
        bs.h(0)
        mask = np.array([True, False, True, False])
        bs.measure(0, mask)
        # Unmasked shots must still be in superposition: their stabilizer
        # contains an X component.
        for shot in (1, 3):
            t = bs.shot_tableau(shot)
            assert t.x[1:, 0].any()

    def test_masked_reset(self):
        bs = BatchTableauSimulator(1, 6, rng=3)
        bs.x_gate(0)
        mask = np.array([True, True, False, False, True, False])
        bs.reset(0, mask)
        np.testing.assert_array_equal(bs.measure(0),
                                      [0, 0, 1, 1, 0, 1])

    def test_masked_two_qubit(self):
        bs = BatchTableauSimulator(2, 4, rng=4)
        bs.x_gate(0)
        mask = np.array([True, False, True, False])
        bs.cx(0, 1, mask)
        np.testing.assert_array_equal(bs.measure(1), [1, 0, 1, 0])

    def test_masked_swap(self):
        bs = BatchTableauSimulator(2, 4, rng=5)
        bs.x_gate(0)
        mask = np.array([True, False, False, True])
        bs.swap(0, 1, mask)
        np.testing.assert_array_equal(bs.measure(0), [0, 1, 1, 0])
        np.testing.assert_array_equal(bs.measure(1), [1, 0, 0, 1])


class TestBatchMaskedVsSingle:
    """Masked measure/reset on the batch tableau agree, shot by shot and
    row by row, with the single-state :class:`Tableau` on random
    Clifford circuits."""

    @pytest.mark.parametrize("seed", range(8))
    def test_masked_trajectories_identical(self, seed):
        n, B = 6, 16
        rng = np.random.default_rng(seed)
        circuit = random_clifford_circuit(n, 150, rng=seed,
                                          measure_prob=0.12, reset_prob=0.1)
        bs = BatchTableauSimulator(n, B, rng=seed + 100)
        singles = [TableauSimulator(n, rng=0) for _ in range(B)]
        for gate in circuit:
            mask = rng.random(B) < 0.6
            a = gate.qubits[0]
            if gate.gate_type is GateType.MEASURE:
                out = bs.measure(a, mask)
                for shot in np.nonzero(mask)[0]:
                    got = singles[shot].tableau.measure(
                        a, singles[shot].rng, forced_outcome=int(out[shot]))
                    assert got == out[shot]
                assert not out[~mask].any()
            elif gate.gate_type is GateType.RESET:
                bs.reset(a, mask)
                for shot in np.nonzero(mask)[0]:
                    # The batch drew the outcome; the reset state must
                    # equal the single-state reset for one of the two.
                    want = bs.shot_tableau(shot)
                    matches = []
                    for forced in (0, 1):
                        t = singles[shot].tableau.copy()
                        if t.measure(a, singles[shot].rng,
                                     forced_outcome=forced):
                            t.x_gate(a)
                        matches.append(t)
                    hit = [t for t in matches
                           if np.array_equal(t.x, want.x)
                           and np.array_equal(t.z, want.z)
                           and np.array_equal(t.r, want.r)]
                    assert hit
                    singles[shot].tableau = hit[0]
            else:
                bs.apply(gate, mask=mask)
                for shot in np.nonzero(mask)[0]:
                    singles[shot].apply(gate)
            for shot in range(B):
                want = singles[shot].tableau
                got = bs.shot_tableau(shot)
                assert np.array_equal(want.x, got.x)
                assert np.array_equal(want.z, got.z)
                assert np.array_equal(want.r, got.r)


class TestPinnedTableauDigest:
    #: sha1 of the record block below, from the (B, 2n, n) shot-major
    #: tableau with dense rowsums.  Layout and kernel changes must keep
    #: it: same states, same RNG calls in the same order and size.
    STRIKE_D5_SHA1 = "d69cf30fc5ae8cecad687c1017dd1c928b81c9d1"

    def test_strike_d5_block_digest(self):
        import hashlib

        from repro.injection.campaign import _task_context
        from repro.injection.spec import CodeSpec, FaultSpec, InjectionTask
        from repro.noise import run_batch_noisy

        code = CodeSpec("xxzz", (5, 5))
        fault = FaultSpec(kind="radiation",
                          root_qubit=code.build().lattice.data_index(2, 2),
                          strike_round=4, intensity=0.5)
        task = InjectionTask(code=code, fault=fault, rounds=10,
                             intrinsic_p=0.005, decoder="mwpm",
                             backend="auto", shots=512, seed=7202)
        experiment, _, noise, _, _, _ = _task_context(task)
        records = run_batch_noisy(experiment.circuit, noise, 512,
                                  rng=np.random.default_rng(2024),
                                  backend="tableau")
        assert records.shape == (512, 266)
        digest = hashlib.sha1(np.ascontiguousarray(records).tobytes())
        assert digest.hexdigest() == self.STRIKE_D5_SHA1


class TestRunShot:
    def test_run_shot_convenience(self):
        c = Circuit(1).x(0).measure(0, 0)
        assert run_shot(c, seed=0) == {0: 1}

    def test_wider_simulator_than_circuit_rejected_inverse(self):
        c = Circuit(5).x(4)
        with pytest.raises(ValueError):
            TableauSimulator(3).run(c)

    def test_batch_size_one_minimum(self):
        with pytest.raises(ValueError):
            BatchTableauSimulator(1, 0)


class TestStatevectorDetails:
    def test_prob_one(self):
        sv = StatevectorSimulator(1)
        sv.run(Circuit(1).h(0))
        assert sv.prob_one(0) == pytest.approx(0.5)

    def test_forced_zero_probability_rejected(self):
        sv = StatevectorSimulator(1)
        with pytest.raises(ValueError):
            sv.measure(0, forced_outcome=1)

    def test_qubit_limit(self):
        with pytest.raises(ValueError):
            StatevectorSimulator(30)

    def test_probabilities_normalised(self):
        sv = StatevectorSimulator(3, rng=0)
        sv.run(random_clifford_circuit(3, 30, rng=1))
        assert sv.probabilities().sum() == pytest.approx(1.0)


class TestPropertySimulators:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_ghz_parity_always_even(self, seed):
        c = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        c.measure(0, 0).measure(1, 1).measure(2, 2)
        rec = run_shot(c, seed=seed)
        assert rec[0] == rec[1] == rec[2]
