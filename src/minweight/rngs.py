"""Reproducible random-number streams.

Every experiment derives its generators through :func:`stream`, which maps an
integer key tuple onto a numpy generator.  Records are therefore bit-identical
across reruns and independent of execution order: within one run, trial i never
consumes entropy meant for trial j.

The map is not injective.  SeedSequence reads a key as 32-bit words and mixes
a pool of four, so two classes of distinct keys meet:

- trailing zero parts: a key of fewer than four words is mixed as if padded
  with zeros, so stream(7, 501) is stream(7, 501, 0);
- parts of 2**32 or more: such a part becomes several words, so the key
  (7 + 100 * 2**32, 5, 0) is the key (7, 100, 5).

Keys of one call site with a fixed length and parts below 2**32 never meet;
keys of different call sites can.  ROADMAP item 17 plans an encoding without
collisions.
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

    The same tuple always gives the same stream, and tuples that SeedSequence
    reads as distinct words give statistically independent streams.  Tuples
    that differ only in trailing zeros, or in how parts of 2**32 or more split
    into words, give the same stream (see the module docstring).
    """
    if not parts:
        raise ValueError("stream key must have at least one part")
    return np.random.default_rng(np.random.SeedSequence(_normalize(parts)))


def stream_id(*parts: int) -> int:
    """Stable 64-bit identifier of a stream key, for seed columns in records.

    Keys that give the same stream share their identifier too.
    """
    seq = np.random.SeedSequence(_normalize(tuple(parts)))
    words = seq.generate_state(2, dtype=np.uint32)
    return (int(words[0]) << 32) | int(words[1])
