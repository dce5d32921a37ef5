"""Shared utilities: RNG spawning, parallel map."""

from .parallel import default_workers, parallel_map
from .rng import as_generator, spawn_seeds, task_seed

__all__ = [
    "parallel_map",
    "default_workers",
    "as_generator",
    "spawn_seeds",
    "task_seed",
]
