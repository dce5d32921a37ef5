"""Reference pass + noise lowering: circuit → frame program.

A :class:`FrameProgram` is the compiled form a
:class:`~repro.frames.simulator.FrameSimulator` executes: the ideal
circuit reduced to frame-propagation opcodes, interleaved with
*lowered* noise sites, plus the reference measurement record the frames
are XORed against.

The **reference pass** runs the circuit once, noiselessly, through the
single-shot :class:`~repro.stabilizer.simulator.TableauSimulator`,
recording every measurement's outcome and whether it took the
random-outcome CHP branch (some stabilizer anticommutes with the
measured ``Z``).  Random-branch measurements are still sampled exactly
by the frame backend — the simulator's Z-frame randomisation at
initialisation, reset and measurement supplies per-shot randomness with
the correct cross-measurement correlations — but the flags are kept as
program metadata: a program with *no* random branches reproduces the
reference record bit-for-bit on noiseless shots, while any random
branch makes the record (including later measurements whose CHP branch
is deterministic but whose value is conditioned on the earlier
collapse) exact in distribution only.

**Noise lowering** turns the supported channel types into bit-packed
samplers:

* :class:`~repro.noise.depolarizing.DepolarizingNoise` → per-qubit
  ``OP_DEPOLARIZE`` sites (exact: Pauli channels commute with frame
  propagation).
* :class:`~repro.noise.erasure.ErasureChannel` and
  :class:`~repro.noise.radiation.RadiationChannel` (the paper's Eqs.
  5-7 reset faults) → ``OP_RESET_NOISE`` sites with a per-site
  probability.  At sites where the reference state holds the struck
  qubit in a definite ``Z`` eigenstate (always true for repetition-code
  memories, and for ancillas between their reset and re-entanglement)
  the lowering is *exact*: the fault forces the frame's X component to
  the reference eigenvalue, mapping the reference state onto |0>.
  Elsewhere the reset is lowered to a full Pauli twirl of the qubit —
  a reset to the maximally mixed state, i.e. the paper's reset-to-|0>
  composed with an extra 50% X flip.  Site counts for both cases are
  recorded on the program so the approximation is observable.  At
  strike intensity the twirled sites dominate: the paper's d=5,
  10-round strike (intensity 0.5) has 969 twirled of 1429 sites and
  fires ~16.6 of them per shot, so no shot escapes the approximation
  and ``auto`` keeps that workload on the tableau backend (see
  :mod:`repro.noise.executor`).

Any other channel type raises :class:`FrameLoweringError`; callers fall
back to the batched tableau backend.

:func:`compile_frame_program` runs in three steps, so the
noise-independent work is done once per process and shared by every
call that compiles the same circuit:

1. **Noise walk** (:func:`_noise_walk`) — drive the channels'
   ``begin_run``/``observe``/``triggers_on`` over the gates and list
   each lowered site: gate position, qubit, ``p`` and kind (depolarize
   or fault reset).  No tableau.
2. **Reference pass** (:func:`_shared_reference`) — the scalar frame
   ops, the reference record, the random-branch cbits, and the Z value
   at each fault-reset site of step 1 (only there: Z reads dominate a
   pass, so reading at every gate qubit would slow a cold compile).
   The result is cached, keyed by circuit *content* plus the reset-site
   positions, but only when the pass **drew nothing** from the rng (its
   bit-generator state is unchanged).  Whether a CHP measurement draws
   depends on the tableau alone, and the tableau evolves
   deterministically until the first draw, so such a pass is a function
   of the circuit: reusing it is bit-exact and leaves the caller's rng
   exactly where a fresh pass would.  A pass that drew (an xxzz
   memory's first-round X checks) embeds the caller's reference sample
   and is recomputed per call.
3. **Fusion** (:func:`_shared_fusion`) — the :func:`fuse_layers`
   schedule depends only on each op's opcode and qubits, so it is
   cached per op structure as index groups; each call emits the fused
   ops from its own probabilities and reference bits.

On the Fig. 8a repetition sweep (660 points over 3 circuits, one
2-vCPU x86 VM) a compile drops from ~8.2 ms, 57% of it reading Z values
on the tableau, to ~0.6 ms on a shared pass: the noise walk and the
emission remain.  A cold compile costs ~5% more than the single-pass
compiler did, for the cache keys and the merge of steps 1 and 2 (d=5
no-fault 12.7 -> 13.3 ms, d=5 strike 40.7 -> 42.8 ms).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..circuits import Circuit, GateType
from ..noise.base import NoiseModel
from ..noise.depolarizing import DepolarizingNoise
from ..noise.erasure import ErasureChannel
from ..noise.radiation import RadiationBurst, RadiationChannel
from ..obs import prof as _prof
from ..stabilizer.simulator import TableauSimulator

#: Frame-propagation opcodes (ints for cheap dispatch).
OP_H = 0            # (OP_H, qubit)
OP_S = 1            # (OP_S, qubit) — S and SDG propagate frames identically
OP_CX = 2           # (OP_CX, control, target)
OP_CZ = 3           # (OP_CZ, a, b)
OP_SWAP = 4         # (OP_SWAP, a, b)
OP_MEASURE = 5      # (OP_MEASURE, qubit, cbit, reference_bit)
OP_RESET = 6        # (OP_RESET, qubit) — circuit reset (in the reference too)
OP_DEPOLARIZE = 7   # (OP_DEPOLARIZE, qubit, p)
OP_RESET_NOISE = 8  # (OP_RESET_NOISE, qubit, p, x_value|None) — fault reset

#: Fused-layer opcodes: a group of qubit-disjoint same-type ops
#: collapsed into one vectorised (len(layer), W) kernel sweep.  See
#: :func:`fuse_layers` for why fused programs sample bit-identically to
#: their scalar form.
OP_H_LAYER = 9           # (OP_H_LAYER, qubit_array)
OP_S_LAYER = 10          # (OP_S_LAYER, qubit_array)
OP_CX_LAYER = 11         # (OP_CX_LAYER, control_array, target_array)
OP_CZ_LAYER = 12         # (OP_CZ_LAYER, a_array, b_array)
OP_SWAP_LAYER = 13       # (OP_SWAP_LAYER, a_array, b_array)
OP_MEASURE_LAYER = 14    # (OP_MEASURE_LAYER, qubit_array, cbit_array,
                         #  reference_bit_array)
OP_RESET_LAYER = 15      # (OP_RESET_LAYER, qubit_array)
OP_DEPOLARIZE_LAYER = 16  # (OP_DEPOLARIZE_LAYER, qubit_array, p_array)

#: Scalar opcode → its fused-layer twin.
_LAYER_OF = {OP_H: OP_H_LAYER, OP_S: OP_S_LAYER, OP_CX: OP_CX_LAYER,
             OP_CZ: OP_CZ_LAYER, OP_SWAP: OP_SWAP_LAYER,
             OP_MEASURE: OP_MEASURE_LAYER, OP_RESET: OP_RESET_LAYER,
             OP_DEPOLARIZE: OP_DEPOLARIZE_LAYER}

#: Opcode → profiler kernel-bucket name (:mod:`repro.obs.prof`):
#: scalar kinds plus their ``.fused`` layer twins, so the profile
#: separates fused-layer throughput from scalar stragglers.
OP_KIND = {OP_H: "h", OP_S: "s", OP_CX: "cx", OP_CZ: "cz",
           OP_SWAP: "swap", OP_MEASURE: "measure", OP_RESET: "reset",
           OP_DEPOLARIZE: "depolarize", OP_RESET_NOISE: "reset_noise",
           OP_H_LAYER: "h.fused", OP_S_LAYER: "s.fused",
           OP_CX_LAYER: "cx.fused", OP_CZ_LAYER: "cz.fused",
           OP_SWAP_LAYER: "swap.fused",
           OP_MEASURE_LAYER: "measure.fused",
           OP_RESET_LAYER: "reset.fused",
           OP_DEPOLARIZE_LAYER: "depolarize.fused"}

#: Opcodes whose execution consumes the shared rng stream.  Their
#: mutual order is a hard scheduling constraint: permuting any two
#: would hand each the other's draws.
_RNG_OPS = frozenset({OP_MEASURE, OP_RESET, OP_DEPOLARIZE, OP_RESET_NOISE})

#: Qubit operands per opcode (slice of the op tuple holding qubits).
_QUBIT_ARITY = {OP_H: 1, OP_S: 1, OP_CX: 2, OP_CZ: 2, OP_SWAP: 2,
                OP_MEASURE: 1, OP_RESET: 1, OP_DEPOLARIZE: 1,
                OP_RESET_NOISE: 1}

#: Pauli gate types: they conjugate frames trivially (phases only).
_FRAME_TRIVIAL = frozenset({GateType.I, GateType.X, GateType.Y, GateType.Z})

#: Channel types the lowering understands.  Exact type match on purpose:
#: a subclass overriding ``apply_batch`` would be lowered unfaithfully.
LOWERABLE_CHANNELS = (DepolarizingNoise, ErasureChannel, RadiationChannel,
                      RadiationBurst)


class FrameLoweringError(ValueError):
    """The circuit/noise pair cannot be lowered to a frame program."""


@dataclass
class FrameProgram:
    """Compiled frame program: opcodes + reference record + metadata."""

    num_qubits: int
    num_cbits: int
    ops: List[Tuple]
    #: Reference measurement outcomes, indexed by cbit.
    reference_record: np.ndarray
    #: cbits whose reference measurement took the random-outcome branch.
    #: Any entry here demotes the whole record from bit-exact (vs the
    #: reference, noiselessly) to exact-in-distribution: later
    #: deterministic measurements may be conditioned on these collapses.
    random_cbits: Tuple[int, ...] = ()
    #: Reset-fault sites lowered exactly (reference Z-determinate).
    exact_reset_sites: int = 0
    #: Reset-fault sites lowered to a Pauli twirl (reset-to-mixed).
    twirled_reset_sites: int = 0
    #: Channels the program lowered (informational).
    num_channels: int = 0

    @property
    def deterministic_reference(self) -> bool:
        """True when every reference measurement was deterministic, so a
        noiseless frame run reproduces the reference record bit-exactly."""
        return not self.random_cbits

    @property
    def exact_noise(self) -> bool:
        """True when every lowered noise site is distribution-exact."""
        return self.twirled_reset_sites == 0

    def __repr__(self) -> str:
        return (f"FrameProgram(n={self.num_qubits}, cbits={self.num_cbits}, "
                f"ops={len(self.ops)}, random_measures="
                f"{len(self.random_cbits)}, reset_sites="
                f"{self.exact_reset_sites}+{self.twirled_reset_sites}t)")


#: Smallest group worth a fused rng layer: below this the layer kernel's
#: fixed overhead (2-D buffers, row loops) beats the scalar ops it
#: replaces, measured on the d=5 noisy memory program.
_MIN_RNG_LAYER = 4


def _emit_group(code: int, group: List[Tuple], out: List[Tuple]) -> None:
    """Append one scheduled same-opcode group as a scalar or layer op."""
    if len(group) == 1 or (code in _RNG_OPS and len(group) < _MIN_RNG_LAYER):
        out.extend(group)
        return
    if code == OP_MEASURE:
        out.append((OP_MEASURE_LAYER,
                    np.array([op[1] for op in group], dtype=np.intp),
                    np.array([op[2] for op in group], dtype=np.intp),
                    np.array([op[3] for op in group], dtype=np.uint8)))
    elif code == OP_RESET:
        out.append((OP_RESET_LAYER,
                    np.array([op[1] for op in group], dtype=np.intp)))
    elif code == OP_DEPOLARIZE:
        out.append((OP_DEPOLARIZE_LAYER,
                    np.array([op[1] for op in group], dtype=np.intp),
                    np.array([op[2] for op in group], dtype=float)))
    elif _QUBIT_ARITY[code] == 1:
        out.append((_LAYER_OF[code],
                    np.array([op[1] for op in group], dtype=np.intp)))
    else:
        out.append((_LAYER_OF[code],
                    np.array([op[1] for op in group], dtype=np.intp),
                    np.array([op[2] for op in group], dtype=np.intp)))


def fuse_layers(ops: List[Tuple]) -> List[Tuple]:
    """Reschedule a scalar op list into fused ``(k, W)`` kernel sweeps.

    Per-gate execution costs one numpy dispatch per frame row — the
    dominant cost at campaign block sizes, where a row is all of eight
    words.  This pass list-schedules the ops under the only two
    constraints the frame semantics actually impose:

    * **per-qubit order** — ops touching a common qubit never reorder
      (ops on disjoint qubits always commute as frame maps);
    * **rng order** — ops that consume the shared rng stream (measure,
      reset, depolarize, fault reset) keep their exact mutual order, so
      every draw lands in the same op as in the scalar program.

    Ready ops of one opcode whose qubits are pairwise disjoint are
    emitted as a single fused layer: a whole stabilisation sweep of CX
    legs, a round's ancilla measurements, or the depolarize sites
    behind them collapse into one vectorised op each.  Fused rng layers
    draw their samples in the scalar order (loops for per-site
    ``random`` calls; ``Generator.bytes`` streams identically whether
    pulled per row or in one block), so a fused program's records are
    **bit-identical** to the unfused program's — fusion is pure
    scheduling, not approximation.

    The schedule (:func:`_fusion_plan`) reads only each op's opcode and
    qubits, so programs of one op structure share it; only the
    emission reads probabilities, cbits and reference bits.
    """
    return _emit_plan(_fusion_plan(ops), ops)


def _emit_plan(plan: Tuple[Tuple[int, Tuple[int, ...]], ...],
               ops: List[Tuple]) -> List[Tuple]:
    """The fused op list of ``ops`` under a :func:`_fusion_plan`."""
    out: List[Tuple] = []
    for code, group in plan:
        if len(group) == 1:  # most groups: skip the list and the call
            out.append(ops[group[0]])
        else:
            _emit_group(code, [ops[i] for i in group], out)
    return out


def _fusion_plan(ops) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """List-schedule ``ops`` (see :func:`fuse_layers`) into emission
    groups ``(opcode, op indices)``, in program order of emission.

    Reads ``op[0]`` and the qubit operands only, so it runs on an op
    list or on its structure (opcode plus qubits) alike.
    """
    n = len(ops)
    succ: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    last_on_qubit: dict = {}
    last_rng = -1
    for i, op in enumerate(ops):
        code = op[0]
        for q in op[1:1 + _QUBIT_ARITY[code]]:
            prev = last_on_qubit.get(q, -1)
            if prev >= 0:
                succ[prev].append(i)
                indeg[i] += 1
            last_on_qubit[q] = i
        if code in _RNG_OPS:
            if last_rng >= 0:
                succ[last_rng].append(i)
                indeg[i] += 1
            last_rng = i

    plan: List[Tuple[int, Tuple[int, ...]]] = []
    ready_cliff: List[int] = []   # program-order indices, kept sorted
    ready_rng = -1                # at most one (the rng chain head)

    def mark_ready(i: int) -> None:
        nonlocal ready_rng
        if ops[i][0] in _RNG_OPS:
            ready_rng = i
        else:
            ready_cliff.append(i)

    def release(i: int) -> None:
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                mark_ready(j)

    for i in range(n):
        if indeg[i] == 0:
            mark_ready(i)

    emitted = 0
    while emitted < n:
        if ready_cliff:
            batch, ready_cliff = sorted(ready_cliff), []
            by_code: dict = {}
            for i in batch:
                by_code.setdefault(ops[i][0], []).append(i)
            plan.extend((code, tuple(group))
                        for code, group in by_code.items())
            emitted += len(batch)
            for i in batch:
                release(i)
        else:
            i = ready_rng
            ready_rng = -1
            code = ops[i][0]
            group = [i]
            used = set(ops[i][1:1 + _QUBIT_ARITY[code]])
            emitted += 1
            release(i)
            # Extend along the rng chain while the next op is ready,
            # same-opcode, and qubit-disjoint with the group (fault
            # resets stay scalar: their draw count is data-dependent).
            while (code != OP_RESET_NOISE and ready_rng >= 0
                   and ops[ready_rng][0] == code):
                nq = ops[ready_rng][1:1 + _QUBIT_ARITY[code]]
                if any(q in used for q in nq):
                    break
                used.update(nq)
                j = ready_rng
                group.append(j)
                ready_rng = -1
                emitted += 1
                release(j)
            plan.append((code, tuple(group)))
    return tuple(plan)


def supports_noise(noise: Optional[NoiseModel]) -> bool:
    """Cheap pre-flight: can every channel be lowered to frame ops?"""
    if noise is None:
        return True
    return all(type(ch) in LOWERABLE_CHANNELS for ch in noise)


def _z_determinate(sim: TableauSimulator, qubit: int) -> Optional[int]:
    """The definite Z value of ``qubit`` in the reference state, or
    ``None`` when a measurement there would take the random branch."""
    tab = sim.tableau
    if tab.x[tab.n:, qubit].any():
        return None
    # Deterministic CHP branch: non-destructive, consumes no randomness.
    return int(tab.measure(qubit, sim.rng))


#: A lowered noise site: ``(gate position, op)``.  Depolarize ops are
#: complete; fault-reset ops ``(OP_RESET_NOISE, qubit, p)`` still lack
#: the reference Z value the reference pass supplies.
_Site = Tuple[int, Tuple]


def _lower_channel(channel, gate, pos: int, sites: List[_Site]) -> None:
    """Append the sites of one (channel, gate) firing at ``pos``."""
    if type(channel) is DepolarizingNoise:
        for q in gate.qubits:
            if channel.qubits is None or q in channel.qubits:
                sites.append((pos, (OP_DEPOLARIZE, q, channel.p)))
        return
    if type(channel) is ErasureChannel:
        resets = [(q, channel.probability) for q in gate.qubits
                  if q in channel.qubits]
    elif type(channel) is RadiationChannel:
        resets = [(q, float(channel.probs[q])) for q in gate.qubits
                  if q < channel.probs.size and channel.probs[q] > 0.0]
    elif type(channel) is RadiationBurst:
        probs = channel.current_probs()
        resets = ([] if probs is None else
                  [(q, float(probs[q])) for q in gate.qubits
                   if q < probs.size and probs[q] > 0.0])
    else:
        raise FrameLoweringError(
            f"noise channel {type(channel).__name__} has no frame lowering")
    for q, p in resets:
        sites.append((pos, (OP_RESET_NOISE, q, p)))


def _noise_walk(circuit: Circuit, noise: Optional[NoiseModel]
                ) -> List[_Site]:
    """Step 1: every lowered noise site, in program order (no tableau)."""
    sites: List[_Site] = []
    if noise is None:
        return sites
    noise.begin_run()
    channels = list(noise)
    for pos, gate in enumerate(circuit):
        if gate.gate_type is GateType.BARRIER:
            continue
        for channel in channels:
            channel.observe(gate)
            if channel.triggers_on(gate):
                _lower_channel(channel, gate, pos, sites)
    return sites


@dataclass(frozen=True)
class _Reference:
    """Step 2's result: the noiseless reference sample of a circuit."""

    #: ``(gate position, scalar frame op)`` of every non-trivial gate.
    ops: Tuple[_Site, ...]
    record: np.ndarray
    random_cbits: Tuple[int, ...]
    #: Reference Z value (``None``: indefinite) per fault-reset site.
    z_values: Tuple[Optional[int], ...]


def _reference_pass(circuit: Circuit, resets: Tuple[Tuple[int, int], ...],
                    rng: np.random.Generator) -> _Reference:
    """Step 2: run ``circuit`` noiselessly on the CHP tableau, reading
    the reference Z value at each ``(gate position, qubit)`` of
    ``resets`` (sorted by position) just after that gate."""
    sim = TableauSimulator(circuit.num_qubits, rng=rng)
    ref = np.zeros(max(circuit.num_cbits, 1), dtype=np.uint8)
    ops: List[_Site] = []
    random_cbits: List[int] = []
    z_values: List[Optional[int]] = []
    k = 0
    for pos, gate in enumerate(circuit):
        gt = gate.gate_type
        if gt is GateType.BARRIER:
            continue
        if gt in _FRAME_TRIVIAL:
            sim.apply(gate)  # advances the reference; no frame op
        elif gt is GateType.H:
            sim.apply(gate)
            ops.append((pos, (OP_H, gate.qubits[0])))
        elif gt is GateType.S or gt is GateType.SDG:
            sim.apply(gate)
            ops.append((pos, (OP_S, gate.qubits[0])))
        elif gt is GateType.CX:
            sim.apply(gate)
            ops.append((pos, (OP_CX, gate.qubits[0], gate.qubits[1])))
        elif gt is GateType.CZ:
            sim.apply(gate)
            ops.append((pos, (OP_CZ, gate.qubits[0], gate.qubits[1])))
        elif gt is GateType.SWAP:
            sim.apply(gate)
            ops.append((pos, (OP_SWAP, gate.qubits[0], gate.qubits[1])))
        elif gt is GateType.RESET:
            sim.apply(gate)
            ops.append((pos, (OP_RESET, gate.qubits[0])))
        elif gt is GateType.MEASURE:
            a = gate.qubits[0]
            random_branch = bool(sim.tableau.x[sim.tableau.n:, a].any())
            outcome = sim.apply(gate)
            ref[gate.cbit] = outcome
            if random_branch:
                random_cbits.append(gate.cbit)
            ops.append((pos, (OP_MEASURE, a, gate.cbit, int(outcome))))
        else:  # pragma: no cover - the IR has no other gate types
            raise FrameLoweringError(f"unsupported gate type {gt}")
        while k < len(resets) and resets[k][0] == pos:
            z_values.append(_z_determinate(sim, resets[k][1]))
            k += 1
    return _Reference(tuple(ops), ref, tuple(random_cbits),
                      tuple(z_values))


class _Lru(OrderedDict):
    """A small least-recently-used map (``functools.lru_cache`` cannot
    take the caller's rng alongside the key)."""

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize

    def lookup(self, key):
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def store(self, key, value) -> None:
        self[key] = value
        if len(self) > self.maxsize:
            self.popitem(last=False)


#: Per-process caches of the noise-independent compile work, bounded
#: like the campaign's per-configuration caches.  Reference passes are
#: keyed by circuit content plus the fault-reset sites; fusion plans
#: by op structure (opcode plus qubit operands of every scalar op).
_REFERENCES = _Lru(256)
_PLANS = _Lru(256)

_OBS_REF_HIT = obs.counter("frames.compile.reference_hit")
_OBS_REF_MISS = obs.counter("frames.compile.reference_miss")
_OBS_PLAN_HIT = obs.counter("frames.compile.plan_hit")
_OBS_PLAN_MISS = obs.counter("frames.compile.plan_miss")


def _shared_reference(circuit: Circuit, sites: List[_Site],
                      rng: np.random.Generator) -> _Reference:
    """Step 2, shared: reuse a cached pass of the same circuit content
    and fault-reset sites, or run one and cache it when it drew no
    randomness — such a pass is a function of the circuit alone."""
    resets = tuple((pos, op[1]) for pos, op in sites
                   if op[0] == OP_RESET_NOISE)
    key = (circuit.num_qubits, circuit.num_cbits, circuit.gates, resets)
    reference = _REFERENCES.lookup(key)
    if reference is not None:
        _OBS_REF_HIT.inc()
        return reference
    _OBS_REF_MISS.inc()
    before = rng.bit_generator.state
    reference = _reference_pass(circuit, resets, rng)
    if rng.bit_generator.state == before:
        _REFERENCES.store(key, reference)
    return reference


def _merge(reference: _Reference, sites: List[_Site]) -> List[Tuple]:
    """The scalar program: each gate's frame op, then its noise sites
    (fault resets completed with their reference Z values)."""
    ops: List[Tuple] = []
    z_values = iter(reference.z_values)

    def complete(site: Tuple) -> Tuple:
        if site[0] == OP_RESET_NOISE:
            return site + (next(z_values),)
        return site

    j, n = 0, len(sites)
    for pos, op in reference.ops:
        while j < n and sites[j][0] < pos:
            ops.append(complete(sites[j][1]))
            j += 1
        ops.append(op)
    ops.extend(complete(site) for _, site in sites[j:])
    return ops


def _shared_fusion(ops: List[Tuple]) -> List[Tuple]:
    """Step 3: :func:`fuse_layers` with the schedule shared by every
    program of the same op structure."""
    structure = tuple(op[:1 + _QUBIT_ARITY[op[0]]] for op in ops)
    plan = _PLANS.lookup(structure)
    if plan is None:
        _OBS_PLAN_MISS.inc()
        plan = _fusion_plan(structure)
        _PLANS.store(structure, plan)
    else:
        _OBS_PLAN_HIT.inc()
    return _emit_plan(plan, ops)


def compile_frame_program(circuit: Circuit,
                          noise: Optional[NoiseModel] = None,
                          rng: Union[np.random.Generator, int, None] = None
                          ) -> FrameProgram:
    """Run the reference pass and lower ``noise`` into a frame program.

    ``rng`` seeds the reference pass's random measurement branches (the
    compiled program embeds that one reference sample, so the same seed
    always yields the same program).  Raises :class:`FrameLoweringError`
    if the circuit uses an unsupported gate or the noise model contains
    a channel without a frame lowering.

    With a profiler enabled the three steps (module docstring) are
    attributed as stages ``compile.walk`` / ``compile.reference`` /
    ``compile.fuse`` under a ``compile`` stage; one ``None`` check per
    call otherwise.
    """
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    if noise is not None and not supports_noise(noise):
        bad = [type(ch).__name__ for ch in noise
               if type(ch) not in LOWERABLE_CHANNELS]
        raise FrameLoweringError(
            f"noise channels without a frame lowering: {bad}")

    prof = _prof._ACTIVE
    t0 = perf_counter() if prof is not None else 0.0
    sites = _noise_walk(circuit, noise)
    t1 = perf_counter() if prof is not None else 0.0
    reference = _shared_reference(circuit, sites, rng)
    t2 = perf_counter() if prof is not None else 0.0
    ops = _shared_fusion(_merge(reference, sites))
    if prof is not None:
        t3 = perf_counter()
        prof.stage("compile", t3 - t0)
        prof.stage("compile.walk", t1 - t0, under="compile")
        prof.stage("compile.reference", t2 - t1, under="compile")
        prof.stage("compile.fuse", t3 - t2, under="compile")
    exact = sum(1 for z in reference.z_values if z is not None)
    return FrameProgram(
        num_qubits=circuit.num_qubits,
        num_cbits=max(circuit.num_cbits, 1),
        ops=ops,
        reference_record=reference.record.copy(),
        random_cbits=reference.random_cbits,
        exact_reset_sites=exact,
        twirled_reset_sites=len(reference.z_values) - exact,
        num_channels=0 if noise is None else len(noise),
    )
