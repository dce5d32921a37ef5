"""Noisy circuit execution.

Two batched backends share one entry point:

* ``"tableau"`` — walk the circuit gate by gate on the batched CHP
  tableau simulator, letting the noise model inject errors through the
  masked gate API.  Exact for anything a channel can express.
* ``"frames"`` — compile the circuit + noise into a bit-packed
  Pauli-frame program (:mod:`repro.frames`) and propagate 64 shots per
  word.  Orders of magnitude faster; requires every channel to have a
  frame lowering.
* ``"auto"`` (default) — frames when the lowering is *exact* (every
  channel lowers, and every fault-reset site hits a reference-Z-
  determinate qubit), tableau otherwise.  ``"frames"`` additionally
  accepts programs with twirled reset sites — the documented
  reset-to-mixed approximation — trading a small bias at high fault
  intensity for the full speedup.

Strike-intensity reset faults stay on the tableau backend.  On the
paper's d=5, 10-round strike (centre data qubit, ``strike_round=4``,
intensity 0.5, 50 qubits) 969 of the 1429 reset-fault sites are
Z-indefinite in the reference state, and each shot fires ~16.6 of them
on average (the chance a shot fires none is ~2e-8).  Sub-batching only
the shots where such a fault fired would therefore still cover every
shot, so the exact sampler for this workload is the tableau one.

With the profiler on (``repro perf record``), the tableau loop times
every gate by type and every noise channel by class, and reports them
once per block as stages nested under a ``sample`` stage:
``tableau.cx``, ``tableau.measure``, ``tableau.noise.RadiationBurst``,
...  With it off, the loop pays one ``None`` check per gate.

The single-shot path exists for tests and debugging.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Union

import numpy as np

from ..circuits import Circuit, Gate, GateType
from ..obs import prof as _prof
from ..stabilizer.batch import BatchTableauSimulator
from ..stabilizer.simulator import TableauSimulator
from .base import NoiseModel


def run_batch_noisy(circuit: Circuit, noise: Optional[NoiseModel],
                    batch_size: int,
                    rng: Union[np.random.Generator, int, None] = None,
                    backend: str = "auto") -> np.ndarray:
    """Run ``batch_size`` noisy shots; returns records ``(B, cbits)``.

    Noise channels fire after each gate in model order.  A single RNG
    drives measurement randomness and noise sampling so a seed fully
    determines the run — *per backend*: the two backends draw different
    streams, so switching backends changes individual samples while
    preserving every distribution.  ``backend="frames"`` raises
    :class:`~repro.frames.FrameLoweringError` when a channel has no
    frame lowering; ``"auto"`` falls back to the tableau path instead.
    """
    # Imported lazily: repro.frames consumes this package's channel
    # types, so a module-level import would be circular.
    from ..frames import (
        FrameLoweringError,
        FrameSimulator,
        compile_frame_program,
        supports_noise,
        validate_backend,
    )

    validate_backend(backend)
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    if backend != "tableau" and supports_noise(noise):
        # Compile against a clone of the caller's stream: if "auto"
        # discards the program (twirled lowering), the tableau path
        # below still sees the untouched rng and reproduces a pinned
        # backend="tableau" run bit-for-bit.  When the frame path *is*
        # taken, the consumed state is copied back so repeated calls on
        # one Generator draw fresh samples, as the contract above says.
        frame_rng = np.random.Generator(type(rng.bit_generator)())
        frame_rng.bit_generator.state = rng.bit_generator.state
        try:
            program = compile_frame_program(circuit, noise, rng=frame_rng)
        except FrameLoweringError:
            if backend == "frames":
                raise
            program = None  # auto: anything uncompilable takes tableau
        if program is not None and (backend == "frames"
                                    or program.exact_noise):
            records = FrameSimulator(circuit.num_qubits, batch_size,
                                     rng=frame_rng).run(program)
            rng.bit_generator.state = frame_rng.bit_generator.state
            return records
    elif backend == "frames":
        raise FrameLoweringError(
            "noise model has channels without a frame lowering")
    sim = BatchTableauSimulator(circuit.num_qubits, batch_size, rng=rng)
    record = np.zeros((batch_size, max(circuit.num_cbits, 1)), dtype=np.uint8)
    if noise is not None:
        noise.begin_run()
    prof = _prof._ACTIVE
    timing: Dict[str, List[float]] = {}
    t0 = perf_counter()
    for gate in circuit:
        if prof is not None:
            _timed_step(gate, sim, record, noise, rng, timing)
            continue
        sim.apply(gate, record=record)
        if noise is not None and gate.gate_type is not GateType.BARRIER:
            noise.apply_batch(gate, sim, rng)
    if prof is not None:
        prof.stage("sample", perf_counter() - t0)
        for name, (dt, calls) in timing.items():
            prof.stage(name, dt, calls=int(calls), under="sample")
    return record


def _timed_step(gate: Gate, sim: BatchTableauSimulator, record: np.ndarray,
                noise: Optional[NoiseModel], rng: np.random.Generator,
                timing: Dict[str, List[float]]) -> None:
    """One gate of the tableau loop with its gate and each noise
    channel timed into ``timing[name] = [seconds, calls]``; same calls
    in the same order as the untimed loop (:meth:`NoiseModel.
    apply_batch`), so the random stream is untouched."""
    t = perf_counter()
    sim.apply(gate, record=record)
    now = perf_counter()
    row = timing.setdefault(f"tableau.{gate.gate_type.value}", [0.0, 0])
    row[0] += now - t
    row[1] += 1
    if noise is None or gate.gate_type is GateType.BARRIER:
        return
    for ch in noise.channels:
        t = now
        ch.observe(gate)
        if ch.triggers_on(gate):
            ch.apply_batch(gate, sim, rng)
        now = perf_counter()
        row = timing.setdefault(f"tableau.noise.{type(ch).__name__}",
                                [0.0, 0])
        row[0] += now - t
        row[1] += 1


def run_single_noisy(circuit: Circuit, noise: Optional[NoiseModel],
                     rng: Union[np.random.Generator, int, None] = None
                     ) -> Dict[int, int]:
    """Run one noisy shot; returns {cbit: outcome}."""
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    sim = TableauSimulator(circuit.num_qubits, rng=rng)
    if noise is not None:
        noise.begin_run()
    for gate in circuit:
        sim.apply(gate)
        if noise is not None and gate.gate_type is not GateType.BARRIER:
            noise.apply_single(gate, sim, rng)
    return dict(sim.record)
