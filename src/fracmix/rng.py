"""Reproducible random-number streams.

Monte Carlo replications address disjoint streams by (seed, stream_id);
a fixed pair reproduces the same draws bit-for-bit on one platform, and
streams with different ids are statistically independent, so replications
may run in any order (or concurrently) without changing results.  What
is computed from the draws is bit-for-bit on one platform at one BLAS
thread count.  Experiment outputs and simulated panels on uniform grids
(both samplers) keep their bits at any thread count, at the sizes
checked: the exact sampler's Cholesky factor there is elementwise numpy
(the Schur algorithm), its product L z is taken in tiles OpenBLAS runs
on one thread, and the slope reads are matrix-vector products.  One
thing still rounds differently at different counts, so its results under
``OPENBLAS_NUM_THREADS=1`` can differ in the last bits from those under
the default: LAPACK's factor on a non-uniform grid.

``simulate_panel`` and each experiment replication open their stream
once with ``generator()``, draw the effects from it (``draw_effects``)
and hand the running generator to the sampler ``fbm.noise_sampler``
picks.  Both read a stream in that order, so a replication's slope reads
are those of the panel ``simulate_panel`` draws from the same address.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import seed_value


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream_id: int = 0

    def __post_init__(self):
        seed_value("seed", self.seed)
        seed_value("stream_id", self.stream_id)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),))
        return np.random.Generator(np.random.PCG64(ss))
