"""The reproducible uniforms every random draw of the package comes from.

They are keyed, not streamed: ``uniforms(seed, a, b, c)`` are the first three words w
of Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011)
at key (seed, a) and counter (b, c, 0, 0), read as numpy reads them, (w >> 11) 2^-53, with
no generator object.  The simulator keys proposal j of path i at step s (seed, i, s, j),
the verify sweeps word j of case i of a family f (seed, f, i, j).
"""

import numpy as np

from .errors import InvalidSeed

__all__ = ["philox", "uniforms"]

_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)  # of counter words 0, 2
_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)  # the key increments
_LOW = 0xFFFFFFFF
_LANES = 1 << 13  # proposals per Philox pass: its temporaries stay in cache, 2x faster at 10^5


def philox(key, counter):
    """The four words of Philox4x64-10 at the keys (k0, k1) and counters (c0, c1, c2, c3), uint64
    arrays that broadcast; numpy's ``Philox(key=k, counter=c).random_raw(4)`` is this at the
    counter c + 1.  Words 0 and 2 go as one array: a call is about 160 numpy operations."""
    k0, k1, c0, c1, c2, c3 = np.broadcast_arrays(*key, *counter)
    k, a, b = np.stack([k0, k1]), np.stack([c0, c2]), np.stack([c1, c3])
    shape = (2,) + (1,) * (a.ndim - 1)
    m, w = _M.reshape(shape), _W.reshape(shape)
    m_lo, m_hi = m & _LOW, m >> 32
    for _ in range(10):
        # the high and low words of the 128-bit products a m, from 32-bit halves
        a_lo, a_hi = a & _LOW, a >> 32
        mid = a_hi * m_lo + (a_lo * m_lo >> 32)
        hi = a_hi * m_hi + (mid >> 32) + ((a_lo * m_hi + (mid & _LOW)) >> 32)
        a, b, k = hi[::-1] ^ b ^ k, (a * m)[::-1], k + w
    return a[0], b[0], a[1], b[1]


def uniforms(seed, path, step, proposal):
    """The three uniforms of each proposal of the paths at the steps, integer arrays that
    broadcast to a shape S: an array S + (3,).  A seed outside [0, 2^64) raises InvalidSeed."""
    if not 0 <= seed < 2**64:
        raise InvalidSeed(f"seed must lie in [0, 2^64), got {seed}")
    ints = np.broadcast_arrays(*(np.asarray(v, dtype=np.uint64) for v in (path, step, proposal)))
    out, zero = np.empty(ints[0].shape + (3,)), np.zeros((), dtype=np.uint64)
    flat, (path, step, proposal) = out.reshape(-1, 3), (v.ravel() for v in ints)
    for lo in range(0, len(flat), _LANES):
        part = slice(lo, lo + _LANES)
        words = philox((np.uint64(seed), path[part]), (step[part], proposal[part], zero, zero))
        flat[part] = np.stack(words[:3], axis=-1) >> 11
    out *= 2.0 ** -53
    return out
