"""Deterministic random streams keyed by (root_seed, stream_index)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SeedSpec:
    """Names one reproducible random stream.

    The mapping (root_seed, stream_index) -> stream is a pure function:
    equal specs yield bit-identical draw sequences, independent of call
    order.
    """

    root_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not isinstance(self.root_seed, int) or not 0 <= self.root_seed < 2**64:
            raise ValueError("root_seed must be an unsigned 64-bit integer")
        if not isinstance(self.stream_index, int) or self.stream_index < 0:
            raise ValueError("stream_index must be a non-negative integer")


def stream(seed: SeedSpec, *path: int) -> np.random.Generator:
    """Return the generator for ``seed``, optionally descended into a sub-path.

    Sub-paths make every draw a function of its path alone: the training
    datasets of replicate j come from ``stream(seed, tag, j)`` and see the
    same variates whatever else is drawn and in whichever order.
    """
    if any((not isinstance(p, int)) or p < 0 for p in path):
        raise ValueError("stream path entries must be non-negative integers")
    ss = np.random.SeedSequence(
        entropy=seed.root_seed, spawn_key=(seed.stream_index, *path)
    )
    return np.random.Generator(np.random.PCG64(ss))
