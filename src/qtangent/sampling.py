"""The reproducible uniform streams every random draw of the package comes from.

A stream is keyed by an integer seed and a stream index (one per path of an
ensemble), or by a seed, an index and a step: the simulator's rejection
sampler continues a path-step from the latter once its fixed block of
proposals from the path's own stream is all rejected.  The two keys have
spawn keys of different lengths, so they never coincide.
"""

import numpy as np

__all__ = ["stream"]


def stream(seed, index=0, step=None):
    """The uniform stream of (seed, index[, step]): PCG64 seeded through a SeedSequence spawn key.

    Identical keys reproduce the same stream; distinct keys give
    statistically independent streams.  A negative seed, index or step
    raises ValueError.
    """
    key = (index,) if step is None else (index, step)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))
