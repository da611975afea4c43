"""Deterministic RNG streams keyed by (seed, purpose, extra).

Every random draw in a run comes from a named stream so that data synthesis,
noise injection, weight init and per-epoch shuffles never share state. Same
key -> same stream, on any machine, regardless of call order.
"""

from __future__ import annotations

import zlib

import numpy as np


def _tag_code(tag: str) -> int:
    return zlib.crc32(tag.encode("utf-8"))


def _seed_sequence(seed: int, tag: str, extra) -> np.random.SeedSequence:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if any(e < 0 for e in extra):
        raise ValueError(f"extra key parts must be non-negative, got {extra}")
    return np.random.SeedSequence([int(seed), _tag_code(tag), *[int(e) for e in extra]])


def stream(seed: int, tag: str, *extra: int) -> np.random.Generator:
    """Generator for the (seed, tag, *extra) key."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, tag, extra)))


def derive_seed(seed: int, tag: str, *extra: int) -> int:
    """Collapse a stream key to a single integer seed (for ops that take one)."""
    return int(_seed_sequence(seed, tag, extra).generate_state(1, dtype=np.uint64)[0])
