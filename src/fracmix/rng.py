"""Reproducible random-number streams.

Monte Carlo replications address disjoint streams by (seed, stream_id);
a fixed pair reproduces the same draws bit-for-bit on one platform, and
streams with different ids are statistically independent, so replications
may run in any order (or concurrently) without changing results.

``simulate_panel`` opens its stream once with ``generator()`` and hands
the running generator to the samplers in ``fbm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not (0 <= int(self.stream_id) < 2**64):
            raise ValueError(f"stream_id must be a 64-bit unsigned integer, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),))
        return np.random.Generator(np.random.PCG64(ss))
