"""Shared infrastructure: logging, deterministic RNG, I/O."""

from repro.utils.rng import child_seed, rng_for
from repro.utils.io import read_json, write_json, ensure_dir

__all__ = [
    "child_seed",
    "rng_for",
    "read_json",
    "write_json",
    "ensure_dir",
]
