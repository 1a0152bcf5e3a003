"""Inverse-CDF sampling from tabulated densities.

The simulator tabulates many densities at once as cumulative rows
(:func:`batch_cdf_tables`): each row sums the 4-point Gauss-Legendre masses
of the intervals between its nodes (:func:`gauss_points` gives the
evaluation points) and is renormalized to end at exactly 1.  The rows are
inverted with a monotone-cubic quantile (:func:`pchip_quantile`).  Node
placement is the caller's; :func:`cheb_nodes` clusters nodes toward both
ends of an interval, where the q-normal density vanishes like a square root.
Randomness flows exclusively from :func:`stream` (an integer seed and a
stream index), so every consumer is reproducible.
"""

import numpy as np

from .errors import NonFinite

__all__ = [
    "stream",
    "batch_cdf_tables",
    "pchip_quantile",
    "gauss_points",
    "cheb_nodes",
]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)
_TIE = 2.0 ** -53  # spacing of Generator.random() draws in [0, 1)


def stream(seed, index=0):
    """The uniform stream of (seed, index): PCG64 seeded through a SeedSequence spawn key.

    Identical pairs reproduce the same stream; distinct pairs give
    statistically independent streams.  A negative seed or index raises
    ValueError.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def batch_cdf_tables(density_matrix, nodes):
    """Cumulative rows of a batch of densities, one row per conditional.

    ``density_matrix`` has shape (batch, m): row r holds a density at the
    gauss_points of node row ``nodes[r]`` ((batch, n) array).  Returns the
    (batch, n) cumulative masses at the nodes, each row renormalized to end
    at exactly 1.  Used by the simulator to amortise kernel evaluations
    across many conditioning states.
    """
    half = 0.5 * np.diff(nodes, axis=1)
    vals = density_matrix.reshape(half.shape + (len(_GL_W),))
    masses = np.clip(vals @ _GL_W, 0.0, None) * half
    cdf = np.zeros(nodes.shape)
    np.cumsum(masses, axis=1, out=cdf[:, 1:])
    totals = cdf[:, -1].copy()
    if not np.all(np.isfinite(totals)) or np.any(totals <= 0.0):
        raise NonFinite("conditional density rows produced non-finite or zero mass")
    cdf /= totals[:, None]
    cdf[:, 0] = 0.0
    cdf[:, -1] = 1.0
    return cdf


def _pchip_slopes(c, v):
    """Fritsch-Carlson shape-preserving slopes of each row of v against the same row of c.

    Intervals of c narrower than the 2^-53 spacing of the uniforms count as
    ties and get zero secants: a draw lands strictly inside one with
    probability below 2^-53, and the secant of a mass that underflows would
    overflow.
    """
    h = np.diff(c, axis=1)
    live = h > _TIE
    safe_h = np.where(live, h, 1.0)
    d = np.where(live, np.diff(v, axis=1) / safe_h, 0.0)
    m = np.zeros_like(v)
    d0, d1 = d[:, :-1], d[:, 1:]
    h0, h1 = safe_h[:, :-1], safe_h[:, 1:]
    pos = d0 * d1 > 0.0
    w1 = 2.0 * h1 + h0
    w2 = h1 + 2.0 * h0
    with np.errstate(divide="ignore", invalid="ignore"):
        har = (w1 + w2) / (w1 / np.where(pos, d0, 1.0) + w2 / np.where(pos, d1, 1.0))
    m[:, 1:-1] = np.where(pos, har, 0.0)
    for edge, inner in ((0, 1), (-1, -2)):
        ha, hb, da, db = safe_h[:, edge], safe_h[:, inner], d[:, edge], d[:, inner]
        slope = ((2.0 * ha + hb) * da - ha * db) / (ha + hb)
        overshoot = (da * db < 0.0) & (np.abs(slope) > 3.0 * np.abs(da))
        m[:, edge] = np.where(slope * da <= 0.0, 0.0, np.where(overshoot, 3.0 * da, slope))
    return m


def _row_search(cdf, row, u):
    """For each i, the last index j with cdf[row[i], j] <= u[i], by bisection.

    Equals np.searchsorted(cdf[row[i]], u[i], side="right") - 1 for u >= 0,
    since every row starts at 0 and never decreases.
    """
    lo = np.zeros(len(u), dtype=np.intp)
    hi = np.full(len(u), cdf.shape[1], dtype=np.intp)
    for _ in range(cdf.shape[1].bit_length()):
        mid = (lo + hi) >> 1
        below = cdf[row, mid] <= u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo


def pchip_quantile(nodes, cdf, row, u):
    """Monotone-cubic quantile: entry i inverts cumulative row ``row[i]`` at u[i].

    ``nodes`` and ``cdf`` are (batch, n) rows as from batch_cdf_tables, u
    lies in [0, 1).  Linear quantile interpolation smears the heavy flanks
    that small-step transition kernels inherit from their Cauchy tangents;
    the shape-preserving (PCHIP) cubic keeps the flank quantiles faithful at
    the same node count.
    """
    m = _pchip_slopes(cdf, nodes)
    i = np.minimum(_row_search(cdf, row, u), cdf.shape[1] - 2)
    c0, v0, m0 = cdf[row, i], nodes[row, i], m[row, i]
    c1, v1, m1 = cdf[row, i + 1], nodes[row, i + 1], m[row, i + 1]
    hc = c1 - c0
    safe = np.where(hc > 0.0, hc, 1.0)
    t = np.clip((u - c0) / safe, 0.0, 1.0)
    t2 = t * t
    t3 = t2 * t
    out = (v0 * (2.0 * t3 - 3.0 * t2 + 1.0)
           + safe * m0 * (t3 - 2.0 * t2 + t)
           + v1 * (-2.0 * t3 + 3.0 * t2)
           + safe * m1 * (t3 - t2))
    return np.clip(out, nodes[row, 0], nodes[row, -1])


def gauss_points(nodes):
    """Gauss-Legendre evaluation points of the intervals of each node row.

    For (..., n) nodes returns (..., (n-1) * 4) points (the 4-point rule), the layout
    batch_cdf_tables expects.
    """
    mid = 0.5 * (nodes[..., :-1] + nodes[..., 1:])
    half = 0.5 * np.diff(nodes, axis=-1)
    pts = mid[..., None] + half[..., None] * _GL_X
    return pts.reshape(nodes.shape[:-1] + (-1,))


def cheb_nodes(lo, hi, n):
    """Chebyshev-Lobatto nodes on [lo, hi] (endpoint-clustered)."""
    return lo + (hi - lo) * (0.5 * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1))))
