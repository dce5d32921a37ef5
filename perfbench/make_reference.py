#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``: the logical-error and
correction rates the benchmark's correctness checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Each reference is a long run of the workload's own task(s) on a block
range (or campaign seed) no benchmark seed reaches.  A change that
keeps the sampling distributions — a new random-number contract, a
faster kernel — keeps passing against these; regenerate them only when
the statistics of a workload are meant to change, and say so.  Takes
about seven minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

#: Block range / campaign seed reserved for references.
REF_BLOCK = 1 << 40
REF_ROOT_SEED = 1 << 30


def serial_reference(workload: str, shots: int) -> dict:
    from repro.injection.campaign import iter_task_chunks
    from repro.rare.stats import WeightStats

    tasks, _ = wl.serial_tasks(workload)
    start = REF_BLOCK * wl.BLOCK
    out = {}
    for task in tasks:
        errors = corrections = 0
        moments = [0.0, 0.0, 0.0, 0.0]
        for chunk in iter_task_chunks(task, chunk_shots=8 * wl.BLOCK,
                                      start_shot=start,
                                      total_shots=start + shots):
            errors += chunk.errors
            corrections += chunk.corrections_applied
            for b in chunk.block_weights or ():
                moments = [x + y for x, y in zip(moments, b)]
        name = wl.task_name(task)
        if task.sampler.weighted:
            stats = WeightStats(shots, *moments)
            rate = stats.estimate("sn")
            out[name] = {"rate": rate, "shots": shots,
                         "rel_se": math.sqrt(stats.variance("sn")) / rate,
                         "ess": stats.ess}
        else:
            out[name] = {"rate": errors / shots, "shots": shots}
        out[name]["corr_rate"] = corrections / shots
        print(workload, name, out[name], flush=True)
    return out


def sweep_reference(shots_per_point: int) -> dict:
    results = wl.sweep_campaign(REF_ROOT_SEED, shots=shots_per_point).run(
        workers=wl.SWEEP_WORKERS)
    out: dict = {}
    for r in results:
        tags = dict(r.task.tags)
        slot = out.setdefault(tags["arch"], {}).setdefault(
            tags["t"], {"errors": 0, "corrections": 0, "shots": 0})
        slot["errors"] += r.errors
        slot["corrections"] += r.corrections_applied
        slot["shots"] += r.shots
    for by_t in out.values():
        for slot in by_t.values():
            slot["rate"] = slot.pop("errors") / slot["shots"]
            slot["corr_rate"] = slot.pop("corrections") / slot["shots"]
    print("sweep_fig8_rep", out, flush=True)
    return out


def main() -> int:
    ref = {}
    for name, make in (
            ("nofault_d5", lambda: serial_reference("nofault_d5", 2 ** 20)),
            ("tail_d5", lambda: serial_reference("tail_d5", 2 ** 21)),
            ("strike_d5", lambda: serial_reference("strike_d5",
                                                   8 * wl.BLOCK)),
            ("sweep_fig8_rep", lambda: sweep_reference(8 * wl.BLOCK))):
        t0 = time.perf_counter()
        ref[name] = make()
        print(f"{name}: {time.perf_counter() - t0:.1f} s", flush=True)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
