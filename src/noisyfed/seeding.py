"""Deterministic, collision-free random streams.

Every stochastic component of a run draws from its own generator, derived
from the master seed, a domain and a key.  Since stream layout 5 a run keys
one generator per domain by the domain alone, and round t draws the t-th
consecutive block of its stream, with a row for every client, sampled or
not: the effective-noise downlink and uplink, the mini-batches and the
analog downlink.  The analog uplink draws its over-the-air sum and client
sampling one subset per round.  Rows belong to clients, not to execution
order, so a round's draws do not depend on which clients were sampled, and
replicas run in parallel without shared state.
The verification oracles keep their own longer keys.  Layout 8 draws layout
7's numbers; its loss column and full-batch local SGD read client moments.
"""

import numpy as np

#: Version of the mapping from seeds and keys to draws, written into every
#: trace header.  Changing the layout changes traces.
STREAM_LAYOUT = 8

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

    A run keys its streams by the domain alone and the oracles by
    ``(epochs, check)``; keys of different lengths never collide.
    """
    if min(master_seed, domain, *key) < 0:
        raise ValueError("seed components must be non-negative")
    seq = np.random.SeedSequence(entropy=master_seed,
                                 spawn_key=(domain, *key))
    return np.random.default_rng(seq)
