"""Reproducible random-number streams.

Every experiment derives its generators through :func:`stream`, which maps an
integer key tuple injectively onto an independent numpy generator.  Records are
therefore bit-identical across reruns and independent of execution order: trial
i never consumes entropy meant for trial j.
"""

from __future__ import annotations

import numpy as np

from .weights import InvalidInput

__all__ = ["stream", "stream_id"]


def _normalize(parts: tuple[int, ...]) -> list[int]:
    out = []
    for p in parts:
        p = int(p)
        if p < 0:
            raise InvalidInput(f"stream key parts must be non-negative integers, got {p}")
        out.append(p)
    return out


def stream(*parts: int) -> np.random.Generator:
    """Return the generator for an integer key such as (master_seed, n, trial).

    Distinct key tuples give statistically independent streams (SeedSequence
    hashes the full entropy list), and the same tuple always gives the same
    stream.
    """
    if not parts:
        raise ValueError("stream key must have at least one part")
    return np.random.default_rng(np.random.SeedSequence(_normalize(parts)))


def stream_id(*parts: int) -> int:
    """Stable 64-bit identifier of a stream key, for seed columns in records."""
    seq = np.random.SeedSequence(_normalize(tuple(parts)))
    words = seq.generate_state(2, dtype=np.uint32)
    return (int(words[0]) << 32) | int(words[1])
