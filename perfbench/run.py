#!/usr/bin/env python3
"""Cold-process benchmark of the fault-injection engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Workloads are described in ``perfbench/workloads.py``.  Every
repetition is a fresh interpreter (``perfbench/child.py``), so import,
lru and decode caches start empty; set-up time is reported on its own
and no warm/cold difference is ever reported.

``--trace 0`` prints the end-to-end metrics:

* ``shots_per_s`` — shots completed / run wall time, set-up excluded,
  pooled over the measuring processes;
* ``setup_s`` — process start to first block ready (imports, experiment
  build, transpile, detector graph, frame-program compile, tilt pilot);
  median over every process of the run, including set-up-only ones;
* ``peak_rss_mb`` — peak resident memory of the largest process of a
  repetition (parent or scheduler worker), median over repetitions;
* ``ess_per_s`` — effective sample size per second of run wall (Kish
  ESS of the pooled weights; plain Monte Carlo has unit weights, so
  there it equals ``shots_per_s``).

The failed-task share is printed too, and carried by the result's
``attempted``/``failed`` fields.  ``--trace 1`` runs untraced/traced
twins over identical shots, checks their counts agree exactly, and
prints the per-layer split (see ``perfbench/layers.py``) with
``trace.overhead_frac``.  The last stdout line is always the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")

#: Measuring processes per untraced run (traced runs use half as many
#: untraced/traced pairs, at least one).  Strike and sweep units are
#: large (~20 s and ~14 s), so one or two processes fill a run.
CHILDREN = {"nofault_d5": 4, "tail_d5": 4, "strike_d5": 2,
            "sweep_fig8_rep": 1}
#: Extra set-up-only processes per untraced run, so ``setup_s`` is a
#: median over several cold starts.
SETUP_ONLY = 4
#: Every child must be done this long after the run started.
DEADLINE_S = 170.0
#: Campaign points of the sweep (22 used roots x 3 archs x 10 times).
SWEEP_POINTS = 660

E2E_UNITS = {"shots_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
             "ess_per_s": "1/s"}
LAYER_UNITS = {
    "transpile.transpile_s": "s", "transpile.swaps": "count",
    "decoders.graph_build_s": "s", "frames.compile_s": "s",
    "frames.sample_s": "s", "frames.blocks": "count",
    "frames.ops": "count", "frames.fused_ops": "count",
    "frames.fused_frac": "ratio",
    "stabilizer.sample_s": "s", "stabilizer.blocks": "count",
    "decoders.decode_s": "s", "decoders.patterns": "count",
    "decoders.distinct_patterns": "count",
    "decoders.cache_hit_ratio": "ratio",
    "decoders.matcher_s": "s", "decoders.matcher_calls": "count",
    "detect.self_s": "s", "rare.pilot_s": "s", "rare.ess_frac": "ratio",
    "injection.chunk_s.p50": "s", "injection.chunk_s.p90": "s",
    "injection.self_s": "s", "injection.merge_s": "s",
    "injection.store_bytes": "bytes",
    "parallel.leases": "count", "parallel.steals": "count",
    "parallel.busy_frac": "ratio",
    "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
    "trace.prof_coverage": "ratio",
}


def spawn(args, child: int, mode: str, trace: int, deadline: float,
          budget: float = 0.0, units: Optional[int] = None
          ) -> Optional[dict]:
    """Run one cold child; returns its JSON result (with ``setup_s``
    counted from the spawn) or None."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--child", str(child), "--mode", mode, "--trace", str(trace),
           "--budget", repr(budget), "--workdir", WORKDIR]
    if args.smoke:
        cmd.append("--smoke")
        units = 1
    if units is not None:
        cmd += ["--units", str(units)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                       else []))
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"child {child} ({mode}) timed out", file=sys.stderr)
        return None
    finally:
        stop(proc)
    if proc.returncode == 0 and stdout.strip():
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except ValueError:
            pass
        else:
            result["setup_s"] = result["ready"] - t_spawn
            return result
    print(f"child {child} ({mode}) exited {proc.returncode} without a "
          f"result", file=sys.stderr)
    return None


def stop(proc: subprocess.Popen) -> None:
    """End a child that is still running: SIGTERM first (a sweep's
    scheduler then stops its workers), SIGKILL if it lingers."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def quantile(values: List[float], q: float) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def rate(results: List[dict]) -> float:
    wall = sum(r["wall_s"] for r in results)
    return sum(r["shots"] for r in results) / wall if wall > 0 else 0.0


def ess(results: List[dict]) -> float:
    wsq = sum(r["wsq"] for r in results)
    return sum(r["wsum"] for r in results) ** 2 / wsq if wsq > 0 else 0.0


def tally(results: List[Optional[dict]], expected: int
          ) -> Tuple[int, int]:
    """(attempted, failed) tasks: a sweep point counts as one task; a
    crashed child fails every task it was to run."""
    attempted = failed = 0
    for r in results:
        if r is None:
            attempted += expected
            failed += expected
            continue
        for t in r["tasks"]:
            n = t.get("points", 1)
            attempted += n
            failed += 0 if t["ok"] else n
    return attempted, failed


def describe(r: dict) -> str:
    checks = "; ".join(f"{t['name']} {'ok' if t['ok'] else 'FAILED'}: "
                       f"{t['detail']}" for t in r["tasks"])
    blocks = r.get("blocks")
    backend = (f", {blocks['frames']} frame-simulator blocks of "
               f"{blocks['engine']} engine blocks" if blocks else "")
    return (f"{r['shots']} shots in {r['wall_s']:.2f} s "
            f"({r['shots'] / r['wall_s']:.1f} shots/s), set-up "
            f"{r['setup_s']:.3f} s, peak RSS {r['rss_mb']:.0f} MB"
            f"{backend}; {checks}")


def tasks_per_child(args) -> int:
    points = SWEEP_POINTS // 10 if args.smoke else SWEEP_POINTS
    return {"strike_d5": 2, "sweep_fig8_rep": points}.get(args.workload, 1)


def counts(r: dict) -> list:
    return [(t["name"], t["shots"], t["errors"], t.get("raw"),
             t["corrections"], t.get("moments"), t.get("digest"))
            for t in r["tasks"]]


def run_untraced(args, deadline: float):
    """Set-up-only processes, then the measuring ones; returns
    ``(end-to-end metrics, attempted, failed)``."""
    k = 1 if args.smoke else CHILDREN[args.workload]
    setup_only = 1 if args.smoke else SETUP_ONLY
    setups = [r["setup_s"] for r in
              (spawn(args, k + i, "setup", 0, deadline)
               for i in range(setup_only)) if r is not None]
    measured = [spawn(args, i, "run", 0, deadline, budget=args.seconds / k)
                for i in range(k)]
    ok = [r for r in measured if r is not None]
    attempted, failed = tally(measured, expected=tasks_per_child(args))
    attempted += setup_only
    failed += setup_only - len(setups)
    setups += [r["setup_s"] for r in ok]
    if not ok:
        raise SystemExit("error: no repetition completed")
    for i, r in enumerate(ok):
        print(f"[{args.workload} #{i}] {describe(r)}")
    print(f"[{args.workload}] failed_frac = {failed / attempted:.4f} "
          f"({failed} of {attempted} tasks)")
    metrics = {
        "shots_per_s": rate(ok),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in ok),
        "ess_per_s": ess(ok) / sum(r["wall_s"] for r in ok),
    }
    return metrics, attempted, failed


def run_traced(args, deadline: float):
    """Untraced/traced twins over identical shots; returns
    ``(per-layer metrics, attempted, failed)``."""
    pairs = 1 if args.smoke else max(1, CHILDREN[args.workload] // 2)
    plain: List[dict] = []
    traced: List[dict] = []
    results: List[Optional[dict]] = []
    for i in range(pairs):
        r = spawn(args, i, "run", 0, deadline,
                  budget=args.seconds / (2 * pairs))
        t = None if r is None else spawn(args, i, "run", 1, deadline,
                                         units=r["units"])
        results += [r, t]
        if t is None:
            continue
        if counts(t) != counts(r):
            # A traced run must sample and decode exactly what the
            # untraced one did; any difference fails its tasks.
            for task in t["tasks"]:
                task["ok"] = False
                task["detail"] += "; counts differ from the untraced run"
            print(f"[{args.workload} #{i}] traced counts {counts(t)} != "
                  f"untraced {counts(r)}")
        plain.append(r)
        traced.append(t)
    attempted, failed = tally(results, expected=tasks_per_child(args))
    if not traced:
        raise SystemExit("error: no traced repetition completed")
    metrics = layer_metrics(traced)
    metrics["trace.overhead_frac"] = 1.0 - rate(traced) / rate(plain)
    return metrics, attempted, failed


def layer_metrics(traced: List[dict]) -> Dict[str, float]:
    """Fold the traced children's raw layer records into the per-layer
    metrics."""
    c: Dict[str, float] = {}
    prof: Dict[str, float] = {}
    chunk_s: List[float] = []
    sums = dict.fromkeys(("engine_s", "below_engine_s", "capacity_s",
                          "store_bytes", "parent_decode_n"), 0.0)
    for r in traced:
        layers = r["layers"]
        for k, v in layers["counters"].items():
            c[k] = c.get(k, 0.0) + v
        for k, v in layers["profile"].items():
            prof[k] = prof.get(k, 0.0) + v
        chunk_s += layers["chunk_s"]
        for k in sums:
            sums[k] += layers[k]
    engine, capacity = sums["engine_s"], sums["capacity_s"]
    merge = c.get("merge_s", 0.0)
    hits = c.get("decode.cache_hits", 0.0)
    probes = hits + c.get("decode.cache_misses", 0.0)
    decodes = c.get("decode_n", 0.0)
    shots = sum(r["shots"] for r in traced)
    parallel = c.get("lease_n", 0.0) > 0
    return {
        "transpile.transpile_s": c.get("transpile_s", 0.0),
        "transpile.swaps": c.get("swaps", 0.0),
        "decoders.graph_build_s": c.get("graph_build_s", 0.0),
        "frames.compile_s": c.get("compile_s", 0.0),
        "frames.sample_s": c.get("frames_sample_s", 0.0),
        "frames.blocks": c.get("frames_sample_n", 0.0),
        "frames.ops": c.get("frames.ops", 0.0),
        "frames.fused_ops": c.get("frames.fused_ops", 0.0),
        "frames.fused_frac": (prof["fused_ops"] / prof["ops"]
                              if prof.get("ops") else 0.0),
        "stabilizer.sample_s": c.get("tableau_sample_s", 0.0),
        "stabilizer.blocks": c.get("tableau_sample_n", 0.0),
        "decoders.decode_s": c.get("decode_s", 0.0),
        "decoders.patterns": c.get("decode.patterns", 0.0),
        "decoders.distinct_patterns": c.get("decode.distinct_patterns",
                                            0.0),
        "decoders.cache_hit_ratio": hits / probes if probes else 0.0,
        "decoders.matcher_s": prof.get("matcher_s", 0.0),
        # Every decode-cache miss is one matcher call.
        "decoders.matcher_calls": c.get("decode.cache_misses", 0.0),
        "detect.self_s": c.get("detect_self_s", 0.0),
        "rare.pilot_s": c.get("pilot_s", 0.0),
        "rare.ess_frac": ess(traced) / shots if shots else 0.0,
        "injection.chunk_s.p50": quantile(chunk_s, 0.5),
        "injection.chunk_s.p90": quantile(chunk_s, 0.9),
        "injection.self_s": engine - sums["below_engine_s"],
        "injection.merge_s": merge,
        "injection.store_bytes": sums["store_bytes"],
        "parallel.leases": c.get("scheduler.leases", 0.0),
        "parallel.steals": c.get("scheduler.steals", 0.0),
        "parallel.busy_frac": engine / capacity if parallel else 0.0,
        "trace.unattributed_frac": ((capacity - engine - merge) / capacity
                                    if capacity else 0.0),
        "trace.prof_coverage": (sums["parent_decode_n"] / decodes
                                if decodes else 0.0),
    }


def report_layers(workload: str, m: Dict[str, float]) -> None:
    for name, unit in LAYER_UNITS.items():
        print(f"[{workload}] {name:<28} {m[name]:>14.6g} {unit}")
    if m["trace.prof_coverage"] < 1.0:
        # The profiler is process-local and scheduler workers reset
        # it: its buckets see only the parent's share of the work.
        print(f"[{workload}] MISSING in scheduler workers: "
              f"frames.fused_frac and decoders.matcher_s come from the "
              f"profiler, which saw {m['trace.prof_coverage']:.0%} of "
              f"decode calls; their values cover only that share")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=CHILDREN)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size run for perfbench/test_smoke.py "
                             "(one process of each kind, one unit each)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is
    # stopped and waited for before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # Byte-compile once up front: a fresh checkout's first interpreter
    # would otherwise pay it inside the first repetition's set-up.
    compileall.compile_dir(SRC, quiet=1)
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed = run_traced(args, deadline)
        else:
            metrics, attempted, failed = run_untraced(args, deadline)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if args.trace:
        report_layers(args.workload, metrics)
        units = LAYER_UNITS
    else:
        units = E2E_UNITS
        for name, unit in units.items():
            print(f"[{args.workload}] {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
