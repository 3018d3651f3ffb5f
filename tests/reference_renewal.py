"""Renewal epochs drawn on plain numpy generators, that only the tests read.

The block sampler derives its substream keys itself and re-keys one
generator per component for every stream.  This reference builds each
substream's generator from numpy's SeedSequence instead, and adds the
gaps one at a time.
"""

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from driftsel.noise import TAG_RENEWAL, renewal_chunk


def reference_generator(seed, stream, tag):
    """Substream `tag` of replication `stream`, as the package documents it."""
    return Generator(Philox(SeedSequence(seed, spawn_key=(stream, tag))))


def reference_renewal_times(law, horizon, seed, stream):
    """The epochs in (0, horizon] of replication `stream`: its gaps drawn
    renewal_chunk(law, horizon) at a time, added up in order until the
    running sum passes the horizon."""
    gen = reference_generator(seed, stream, TAG_RENEWAL)
    chunk = int(renewal_chunk(law, horizon))
    epochs, total = [], 0.0
    while True:
        for gap in law.sample(gen, chunk).tolist():
            total += gap
            if total > horizon:
                return np.array(epochs)
            epochs.append(total)
