"""Per-layer tracing for the benchmark's traced runs.

:func:`install` wraps the public entry point of every layer the
workloads cross and times each call from here, the benchmark side; the
program itself is not edited.  Times and counts land in counters of
the program's own ``repro.obs`` registry under ``perfbench.*`` names.
That registry is the one transport that already reaches scheduler
workers: each worker zeroes it at start (after ``fork`` inherits these
wrappers) and ships a cumulative snapshot with every chunk, which
:class:`WorkerSnapshots` banks in the parent.

Decode calls nest (the burst-adaptive wrapper calls the base decoder),
so only the outermost decode call counts towards ``decode`` and the
wrapper's own time, minus the decode calls directly inside it, is
``detect_self``.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Dict, List

from repro import obs
from repro.decoders.base import Decoder
from repro.detect.recovery import BurstAdaptiveDecoder
from repro.frames import FrameSimulator
from repro.injection import campaign as _campaign
from repro.injection.store import CampaignStore
from repro.parallel import worker as _worker
from repro.rare import pilot as _pilot

PREFIX = "perfbench."

#: Timers of the layers below the injection engine; what an engine
#: call (a chunk, or a scheduler worker's lease) spends outside them is
#: the injection layer's own time.
BELOW_ENGINE = ("transpile", "graph_build", "compile", "frames_sample",
                "tableau_sample", "decode")

#: Open decode-family calls of this process: ``[kind, child_s]``.  The
#: wrappers patch module and class attributes, which are per process
#: anyway, so their state is too.
_decode_stack: List[list] = []
_installed = False


def _add(name: str, dt: float) -> None:
    """Count one call of layer timer ``name`` taking ``dt`` seconds."""
    obs.counter(f"{PREFIX}{name}_s").inc(dt)
    obs.counter(f"{PREFIX}{name}_n").inc()


def _timed(owner, attr: str, name: str, count=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            _add(name, perf_counter() - t0)
        if count is not None:
            count(out)
        return out

    setattr(owner, attr, wrapper)


def _decode_family(owner, attr: str, kind: str) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = [kind, 0.0]
        _decode_stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            _decode_stack.pop()
            if _decode_stack:
                _decode_stack[-1][1] += dt
            else:
                _add("decode", dt)
            if kind == "detect":
                _add("detect_self", dt - frame[1])

    setattr(owner, attr, wrapper)


def install() -> None:
    """Wrap every layer entry point (idempotent)."""
    global _installed
    if _installed:
        return
    _installed = True
    swaps = obs.counter(f"{PREFIX}swaps")
    _timed(_campaign, "transpile", "transpile",
           count=lambda routed: swaps.inc(routed.swap_count))
    _timed(_campaign, "decoder_for", "graph_build")
    _timed(_campaign, "compile_frame_program", "compile")
    _timed(_campaign, "run_batch_noisy", "tableau_sample")
    _timed(FrameSimulator, "run_packed", "frames_sample")
    _timed(_pilot, "resolve_tilt", "pilot")
    _timed(CampaignStore, "absorb_shards", "merge")
    _timed(_worker, "execute_lease", "lease")
    _decode_family(Decoder, "decode_batch", "decode")
    # The burst-adaptive wrapper decodes its strike-flagged shots
    # through the base decoder's prepared-detector entry, not
    # decode_batch: time both so its self time excludes all decoding.
    _decode_family(Decoder, "_decode_prepared", "decode")
    _decode_family(BurstAdaptiveDecoder, "decode_batch", "detect")


def counters(snapshot: Dict[str, object]) -> Dict[str, float]:
    """The ``perfbench.*`` and program counters of one registry
    snapshot (names without the ``perfbench.`` prefix)."""
    out = {}
    for key, value in snapshot.get("counters", {}).items():
        out[key[len(PREFIX):] if key.startswith(PREFIX) else key] = value
    return out


def below_engine_s(values: Dict[str, float]) -> float:
    return sum(values.get(f"{name}_s", 0.0) for name in BELOW_ENGINE)


class WorkerSnapshots(obs.CampaignMonitor):
    """A sink-less monitor that keeps each scheduler worker's latest
    cumulative registry snapshot."""

    def __init__(self) -> None:
        super().__init__()
        self.snapshots: Dict[int, Dict[str, object]] = {}

    def worker_snapshot(self, wid: int, snap: Dict[str, object]) -> None:
        super().worker_snapshot(wid, snap)
        if snap:
            self.snapshots[wid] = snap
