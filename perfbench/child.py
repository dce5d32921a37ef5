"""One cold benchmark process: set up one workload, run it, report.

Started by ``run.py`` in a fresh interpreter, so import, build and
compile caches start empty.  Prints one JSON object as its last line:

* ``ready`` — CLOCK_MONOTONIC time at which set-up ended (the parent
  subtracts its own spawn time, so set-up counts from process start);
* ``wall_s`` / ``shots`` / ``units`` — the measured run;
* ``tasks`` — per-task counts and correctness verdicts;
* ``blocks`` — single-point workloads only: engine and frame-simulator
  block counts, i.e. the backend ``auto`` resolved to;
* ``wsum`` / ``wsq`` — pooled weight moments (unit weights for plain
  Monte Carlo), for the effective sample size;
* ``rss_mb`` — peak resident memory of the largest process (this one
  or any waited-for descendant, e.g. scheduler workers);
* ``layers`` — with ``--trace 1`` only, the raw per-layer record.

``--mode setup`` stops once set-up is done.  ``--units N`` runs exactly
N units instead of a time budget (the traced twin of an untraced run).
``--smoke`` shrinks the work for the benchmark's own smoke test: one
unit (for the strike, a 64-shot partial block per task), and the sweep
at time sample 0 only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from typing import Dict, List


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _profile_summary(snap) -> Dict[str, float]:
    kernels = snap.get("kernels", {})
    matcher = snap.get("stages", {}).get("decode.matcher", {})
    return {
        "ops": sum(k["ops"] for k in kernels.values()),
        "fused_ops": sum(k["ops"] for kind, k in kernels.items()
                         if kind.endswith(".fused")),
        "matcher_s": matcher.get("total_s", 0.0),
    }


def run_serial(args, out) -> None:
    from repro.injection.campaign import iter_task_chunks
    from repro.obs import registry

    import workloads as wl

    tasks, unit = wl.serial_tasks(args.workload)
    first = wl.start_block(args.seed, args.child) * wl.BLOCK
    # Set-up ends when every task's context (experiment, detector
    # graph, frame program, tilt pilot) is built: a one-shot probe
    # chunk per task builds it, and the probe's own sampling time is
    # taken back out.
    probe_s = 0.0
    for task in tasks:
        chunk = next(iter_task_chunks(task, start_shot=first,
                                      total_shots=first + 1))
        probe_s += chunk.elapsed_s
    out["ready"] = now() - probe_s
    if args.mode == "setup":
        return
    start = first + wl.BLOCK
    if args.smoke:
        total = start + wl.SMOKE_SHOTS.get(args.workload, unit)
    else:
        total = start + unit * 10 ** 6
    gens = [iter_task_chunks(task, chunk_shots=unit, start_shot=start,
                             total_shots=total)
            for task in tasks]
    acc = [[0, 0, 0, 0, [0.0, 0.0, 0.0, 0.0]] for _ in tasks]
    chunk_s: List[float] = []
    before = registry().snapshot()
    t0 = now()
    units = 0
    while True:
        for a, gen in zip(acc, gens):
            chunk = next(gen)
            a[0] += chunk.shots
            a[1] += chunk.errors
            a[2] += chunk.raw_errors
            a[3] += chunk.corrections_applied
            if chunk.block_weights is not None:
                for b in chunk.block_weights:
                    a[4] = [x + y for x, y in zip(a[4], b)]
            chunk_s.append(chunk.elapsed_s)
        units += 1
        if args.units is not None:
            if units >= args.units:
                break
        elif now() - t0 >= args.budget:
            break
    out["wall_s"] = now() - t0
    out["units"] = units
    out["shots"] = sum(a[0] for a in acc)
    # The program's own always-on counters show which backend "auto"
    # resolved to: blocks the engine ran vs blocks the frame simulator
    # ran (the latter also counts set-up probe and pilot blocks).
    counters = registry().snapshot()["counters"]
    out["blocks"] = {"engine": counters.get("engine.blocks", 0),
                     "frames": counters.get("frames.blocks", 0)}
    ref = wl.load_reference()
    for task, (shots, errors, raw, corr, moments) in zip(tasks, acc):
        name = wl.task_name(task)
        weighted = task.sampler.weighted
        ok, detail = wl.check_serial(args.workload, name, shots, errors,
                                     corr, moments if weighted else None,
                                     ref)
        out["tasks"].append({
            "name": name, "shots": shots, "errors": errors, "raw": raw,
            "corrections": corr, "moments": moments if weighted else None,
            "ok": ok, "detail": detail})
        if weighted:
            out["wsum"] += moments[0]
            out["wsq"] += moments[1]
        else:
            out["wsum"] += shots
            out["wsq"] += shots
    if args.trace:
        out["layers"] = _layer_record(before, registry().snapshot(), {},
                                      chunk_s, out["wall_s"])


def run_sweep(args, out) -> None:
    import workloads as wl

    campaign = wl.sweep_campaign(wl.sweep_root_seed(args.seed, args.child),
                                 time_indices=(0,) if args.smoke else None)
    out["ready"] = now()
    if args.mode == "setup":
        return
    from repro import obs
    from repro.injection.store import CampaignStore

    work = os.path.join(args.workdir, f"sweep-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    store = os.path.join(work, "store.jsonl")
    monitor = None
    if args.trace:
        import layers

        monitor = layers.WorkerSnapshots()
    obs.install(monitor)
    before = obs.registry().snapshot()
    t0 = now()
    try:
        results = campaign.run(workers=wl.SWEEP_WORKERS, resume=store)
    finally:
        obs.install(None)
    out["wall_s"] = now() - t0
    out["units"] = 1
    per_arch: Dict[str, Dict[str, List[int]]] = {}
    points: Dict[str, list] = {}
    for r in results:
        tags = dict(r.task.tags)
        slot = per_arch.setdefault(tags["arch"], {}).setdefault(
            tags["t"], [0, 0, 0])
        slot[0] += r.shots
        slot[1] += r.errors
        slot[2] += r.corrections_applied
        points.setdefault(tags["arch"], []).append(
            (r.task.label, r.shots, r.errors, r.corrections_applied))
    out["shots"] = sum(r.shots for r in results)
    out["wsum"] = out["wsq"] = float(out["shots"])
    for arch, (ok, detail) in wl.check_sweep(per_arch).items():
        rows = sorted(points[arch])
        out["tasks"].append({
            "name": arch, "points": len(rows),
            "shots": sum(row[1] for row in rows),
            "errors": sum(row[2] for row in rows),
            "corrections": sum(row[3] for row in rows),
            # Per-point counts, so traced and untraced twins are
            # compared point by point.
            "digest": hashlib.sha1(json.dumps(rows).encode()).hexdigest(),
            "ok": ok, "detail": detail})
    if args.trace:
        reopened = CampaignStore(store)
        chunk_s = [c.elapsed_s for key in reopened.keys()
                   for c in reopened.chunks_for(key)]
        reopened.close()
        out["layers"] = _layer_record(before, obs.registry().snapshot(),
                                      monitor.snapshots, chunk_s,
                                      out["wall_s"],
                                      workers=wl.SWEEP_WORKERS,
                                      store_bytes=os.path.getsize(store))
    shutil.rmtree(work, ignore_errors=True)


def _layer_record(before, after, worker_snaps, chunk_s, wall_s,
                  workers=1, store_bytes=0) -> Dict[str, object]:
    """Raw per-layer numbers of this process and its workers.

    ``engine_s`` is the time spent inside the injection engine's entry
    points during the run: the chunks of a serial run, or the leases
    of scheduler workers (which, unlike a chunk's own timer, include
    building each point's context).
    """
    from repro.obs import prof

    import layers

    parent = layers.counters(after)
    start = layers.counters(before)
    workers_total: Dict[str, float] = {}
    for snap in worker_snaps.values():
        for key, value in layers.counters(snap).items():
            workers_total[key] = workers_total.get(key, 0.0) + value
    total = {k: parent.get(k, 0.0) + workers_total.get(k, 0.0)
             for k in set(parent) | set(workers_total)}
    if workers > 1:
        engine_s = workers_total.get("lease_s", 0.0)
        below = layers.below_engine_s(workers_total)
    else:
        engine_s = sum(chunk_s)
        below = layers.below_engine_s(parent) - layers.below_engine_s(start)
    return {"counters": total,
            "parent_decode_n": parent.get("decode_n", 0.0),
            "engine_s": engine_s,
            "below_engine_s": below,
            "capacity_s": workers * wall_s,
            "chunk_s": chunk_s,
            "store_bytes": store_bytes,
            "profile": _profile_summary(prof.snapshot_active() or {})}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--child", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--budget", type=float, default=5.0)
    parser.add_argument("--units", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    out: Dict[str, object] = {"tasks": [], "wsum": 0.0, "wsq": 0.0}
    if args.trace:
        from repro.obs import prof

        import layers

        layers.install()
        prof.enable()
    if args.workload == "sweep_fig8_rep":
        run_sweep(args, out)
    else:
        run_serial(args, out)
    out["rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
