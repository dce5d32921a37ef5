"""Tests for shared utilities (RNG spawning, parallel map) and the
:class:`repro.obs.Stopwatch` section timer."""

import os

import numpy as np
import pytest

from repro.obs import Stopwatch
from repro.util import (
    as_generator,
    default_workers,
    parallel_map,
    spawn_seeds,
    task_seed,
)


def square(x):
    return x * x


class TestRng:
    def test_as_generator_from_none(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_as_generator_from_int(self):
        a = as_generator(7).integers(1000)
        b = as_generator(7).integers(1000)
        assert a == b

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_spawn_seeds_unique(self):
        seeds = spawn_seeds(42, 100)
        assert len(set(seeds)) == 100

    def test_spawn_seeds_deterministic(self):
        assert spawn_seeds(42, 5) == spawn_seeds(42, 5)

    def test_task_seed_stable_under_count(self):
        # Task 3's seed must not depend on how many tasks exist.
        assert task_seed(1, 3) == task_seed(1, 3)
        assert task_seed(1, 3) != task_seed(1, 4)
        assert task_seed(1, 3) != task_seed(2, 3)


class TestParallelMap:
    def test_empty(self):
        assert parallel_map(square, []) == []

    def test_serial_path(self):
        assert parallel_map(square, [1, 2, 3], max_workers=1) == [1, 4, 9]

    def test_parallel_path_preserves_order(self):
        out = parallel_map(square, list(range(20)), max_workers=4)
        assert out == [x * x for x in range(20)]

    def test_unpicklable_falls_back_to_serial(self):
        # Lambdas cannot cross process boundaries; the helper must not
        # lose the results.
        out = parallel_map(lambda x: x + 1, [1, 2], max_workers=2)
        assert out == [2, 3]

    def test_on_result_fires_exactly_once_per_item(self):
        # Pool path delivers in *completion* order (fast items are
        # checkpointed while slow ones still run), so assert exactly-
        # once with correct (index, result) pairing, not sequence.
        seen = []
        out = parallel_map(square, list(range(8)), max_workers=4,
                           on_result=lambda i, r: seen.append((i, r)))
        assert sorted(seen) == list(enumerate(out))

    def test_on_result_serial_order(self):
        seen = []
        out = parallel_map(square, [3, 1, 2], max_workers=1,
                           on_result=lambda i, r: seen.append((i, r)))
        assert seen == list(enumerate(out))

    def test_on_result_fires_once_despite_pool_fallback(self):
        # Unpicklable fn => the pool dies and the serial path finishes
        # the job; the callback must not re-fire for delivered items
        # (it drives store checkpoints, which must append exactly once).
        seen = []
        parallel_map(lambda x: x + 1, [1, 2, 3], max_workers=2,
                     on_result=lambda i, r: seen.append(i))
        assert seen == [0, 1, 2]

    def test_on_result_exception_propagates(self):
        # A failing checkpoint write must surface, not be mistaken for
        # a broken pool and trigger a silent serial re-run.
        def boom(i, r):
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            parallel_map(square, [1, 2], max_workers=1, on_result=boom)

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_default_workers_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert default_workers() >= 1


class TestStopwatch:
    def test_sections_accumulate(self):
        sw = Stopwatch()
        with sw.section("a"):
            pass
        with sw.section("a"):
            pass
        assert sw.counts["a"] == 2
        assert sw.totals["a"] >= 0.0

    def test_report_sorted(self):
        sw = Stopwatch()
        with sw.section("x"):
            pass
        assert "x" in sw.report()
