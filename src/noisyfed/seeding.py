"""Deterministic, collision-free random streams.

Every stochastic component of a run draws from its own generator, derived
from the master seed, a domain and a key.  Under stream layout 4 every domain
but client sampling is keyed by round: one generator per (domain, round)
yields a block with a row for every client, sampled or not.  That covers the
effective-noise downlink and uplink, the mini-batches and the analog
downlink (power gains, then combined noise), while the analog uplink draws
the deep-fade counts and combined noise of its over-the-air sum.  Client
sampling keeps the key (client 0, round).  Rows belong to clients, not to
execution order, which is what makes the all-clients-train /
sampled-clients-train equivalence exact and lets replicas run in parallel
without shared state.
"""

import numpy as np

#: Version of the mapping from seeds and keys to draws, written into every
#: trace header.  Changing the layout changes traces.
STREAM_LAYOUT = 4

# Stream domains.  Values are part of the determinism contract: changing them
# changes every trace.
DOMAIN_SAMPLING = 0
DOMAIN_DOWNLINK = 2
DOMAIN_BATCH = 3
DOMAIN_UPLINK = 4
DOMAIN_FADE_UPLINK = 5
DOMAIN_FADE_DOWNLINK = 6
DOMAIN_ORACLE = 7


def stream(master_seed, domain, *key):
    """Return the generator owned by ``(domain, *key)`` under a master seed.

    ``key`` is ``(client, round)`` for a per-client stream or ``(round,)``
    for a per-round block; keys of different lengths never collide.
    """
    if min(master_seed, domain, *key) < 0:
        raise ValueError("seed components must be non-negative")
    seq = np.random.SeedSequence(entropy=master_seed,
                                 spawn_key=(domain, *key))
    return np.random.default_rng(seq)
