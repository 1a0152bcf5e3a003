"""Inverse-CDF sampling from bounded (or tail-truncated) densities.

A density on a known support is turned into a :class:`CdfTable`, a tabulated
cumulative built from per-subinterval Gauss-Legendre masses on nodes that
cluster toward the support endpoints (densities here typically vanish like a
square root there).  Sampling is monotone interpolation of the quantile
function; randomness flows exclusively from :class:`SeedSpec` streams, so
every consumer is reproducible.  The simulator tabulates many conditionals
at once as cumulative rows (:func:`batch_cdf_tables`) and inverts them with
a monotone-cubic quantile (:func:`pchip_quantile`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotNormalized, QuadratureFailure
from .kernels import Support

__all__ = [
    "CdfTable",
    "SeedSpec",
    "build_cdf",
    "sample",
    "uniform_stream",
    "batch_cdf_tables",
    "pchip_quantile",
]

_GL_RULES = {order: np.polynomial.legendre.leggauss(order) for order in (4, 8)}
_GL_ORDER = 8


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic stream identity: (base_seed, stream_index) -> uniform stream.

    Identical pairs reproduce the same stream; distinct pairs give
    statistically independent streams (PCG64 seeded through SeedSequence
    spawn keys).
    """

    base_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.base_seed < 0 or self.stream_index < 0:
            raise ValueError("base_seed and stream_index must be nonnegative")

    def generator(self):
        ss = np.random.SeedSequence(entropy=self.base_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(ss))


def uniform_stream(seed: SeedSpec, block=4096):
    """Iterator of uniforms in [0, 1) drawn from the seeded stream."""
    gen = seed.generator()
    while True:
        for u in gen.random(block):
            yield float(u)


@dataclass(frozen=True)
class CdfTable:
    """Tabulated cumulative of a density: the sampling backbone.

    ``nodes`` strictly increase across the (possibly truncated) support and
    ``cdf_values`` rise monotonically from exactly 0 to exactly 1.
    ``truncated_at`` records the tail cut points chosen for an originally
    unbounded support (None at a finite endpoint).
    """

    support: Support
    nodes: np.ndarray
    cdf_values: np.ndarray
    truncated_at: tuple = (None, None)

    def __post_init__(self):
        if len(self.nodes) < 64 or len(self.nodes) != len(self.cdf_values):
            raise ValueError("need >= 64 nodes and matching cdf array")


def _cheb_fractions(n):
    # Chebyshev-Lobatto fractions on [0, 1]: clustered toward both ends.
    return 0.5 * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))


def _power_tail_mass(f_w, f_2w, w):
    """Upper estimate of int_w^inf f, assuming f decays at least like a power law.

    The decay exponent is read off one doubling; for an exact power law
    w^-p the returned value f(w) w / (p-1) is the exact tail mass, for
    faster-than-power decay it overestimates (which is the safe direction).
    Returns inf while the samples do not yet show integrable decay.
    """
    if f_w == 0.0:
        return 0.0
    if f_2w <= 0.0:
        return 0.0
    p = math.log2(f_w / f_2w)
    if p <= 1.01:
        return math.inf
    return f_w * w / (p - 1.0)


def _tail_point_above(density, anchor, scale, tol):
    w = scale
    for _ in range(900):
        f_w = float(density(np.array([anchor + w]))[0])
        f_2w = float(density(np.array([anchor + 2.0 * w]))[0])
        if _power_tail_mass(f_w, f_2w, w) < tol:
            return anchor + w
        w *= 2.0
    raise QuadratureFailure("tail mass never dropped below tolerance (upper)")


def _tail_point_below(density, anchor, scale, tol):
    w = scale
    for _ in range(900):
        f_w = float(density(np.array([anchor - w]))[0])
        f_2w = float(density(np.array([anchor - 2.0 * w]))[0])
        if _power_tail_mass(f_w, f_2w, w) < tol:
            return anchor - w
        w *= 2.0
    raise QuadratureFailure("tail mass never dropped below tolerance (lower)")


def _place_nodes(lo, hi, n, lo_truncated, hi_truncated, scale):
    u = _cheb_fractions(n)
    if not lo_truncated and not hi_truncated:
        return lo + (hi - lo) * u
    if lo_truncated and hi_truncated:
        # asinh stretch around the centre: linear core, logarithmic tails
        c = 0.5 * (lo + hi)
        a, b = np.arcsinh((lo - c) / scale), np.arcsinh((hi - c) / scale)
        return c + scale * np.sinh(a + (b - a) * u)
    if hi_truncated:
        # cluster at the finite left endpoint, spread exponentially to hi
        alpha = math.log1p((hi - lo) / scale)
        return lo + scale * np.expm1(alpha * u)
    alpha = math.log1p((hi - lo) / scale)
    return hi - scale * np.expm1(alpha * (1.0 - u))


def build_cdf(density, support: Support, n=128, tail_mass_tol=1e-10):
    """Tabulate the cumulative of ``density`` over ``support``.

    ``density`` must accept ndarray input.  Unbounded support sides are
    truncated where the remaining mass falls below ``tail_mass_tol`` (located
    by geometric expansion); the cut points are recorded on the table.
    Raises NotNormalized if the tabulated total mass strays from 1 by more
    than 1e-4, NonFinite on NaN/inf density values.
    """
    lo, hi = support.lo, support.hi
    lo_trunc = hi_trunc = None
    scale = 1.0
    if math.isfinite(lo) and math.isfinite(hi):
        pass
    else:
        anchor = 0.0
        if math.isfinite(lo):
            anchor = lo
        elif math.isfinite(hi):
            anchor = hi
        scale = max(1.0, abs(anchor))
        if not math.isfinite(hi):
            hi = hi_trunc = _tail_point_above(density, anchor, scale, tail_mass_tol)
        if not math.isfinite(lo):
            lo = lo_trunc = _tail_point_below(density, anchor, scale, tail_mass_tol)
    nodes = _place_nodes(lo, hi, n, lo_trunc is not None, hi_trunc is not None, scale)
    cdf = _cumulative_masses(density, nodes)
    total = cdf[-1]
    if not math.isfinite(total):
        raise NonFinite("density produced non-finite values inside the support")
    if abs(total - 1.0) > 1e-4:
        raise NotNormalized(f"density mass {total} deviates from 1 by more than 1e-4")
    cdf /= total
    cdf[0], cdf[-1] = 0.0, 1.0
    return CdfTable(support, nodes, cdf, (lo_trunc, hi_trunc))


def _cumulative_masses(density, nodes):
    glx, glw = _GL_RULES[_GL_ORDER]
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    half = 0.5 * np.diff(nodes)
    pts = mid[:, None] + half[:, None] * glx[None, :]
    vals = np.asarray(density(pts.ravel()), dtype=float).reshape(pts.shape)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("density produced NaN/inf at quadrature points")
    masses = np.clip(vals @ glw, 0.0, None) * half
    cdf = np.empty(len(nodes))
    cdf[0] = 0.0
    np.cumsum(masses, out=cdf[1:])
    return cdf


def sample(table: CdfTable, u):
    """Interpolated quantile of the tabulated cdf; monotone in u."""
    out = np.interp(u, table.cdf_values, table.nodes)
    return float(out) if np.ndim(u) == 0 else out


def batch_cdf_tables(density_matrix, nodes, order=_GL_ORDER):
    """Cumulative rows of a batch of densities, one row per conditional.

    ``density_matrix`` has shape (batch, m): row r holds a density at the
    gauss_points of node row ``nodes[r]`` ((batch, n) array).  Returns the
    (batch, n) cumulative masses at the nodes, each row renormalized to end
    at exactly 1.  Used by the simulator to amortise kernel evaluations
    across many conditioning states.
    """
    glw = _GL_RULES[order][1]
    half = 0.5 * np.diff(nodes, axis=1)
    vals = density_matrix.reshape(half.shape + (order,))
    masses = np.clip(vals @ glw, 0.0, None) * half
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

    Ties in c (zero-mass intervals) get zero secants; samples can never land
    strictly inside such an interval, so their slopes are irrelevant as long
    as they stay finite.
    """
    h = np.diff(c, axis=1)
    safe_h = np.where(h > 0.0, h, 1.0)
    d = np.where(h > 0.0, np.diff(v, axis=1) / safe_h, 0.0)
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


def gauss_points(nodes, order=_GL_ORDER):
    """Gauss-Legendre evaluation points of the intervals of each node row.

    For (..., n) nodes returns (..., (n-1) * order) points, the layout
    batch_cdf_tables expects.
    """
    glx = _GL_RULES[order][0]
    mid = 0.5 * (nodes[..., :-1] + nodes[..., 1:])
    half = 0.5 * np.diff(nodes, axis=-1)
    pts = mid[..., None] + half[..., None] * glx
    return pts.reshape(nodes.shape[:-1] + (-1,))


def cheb_nodes(lo, hi, n):
    """Chebyshev-Lobatto nodes on [lo, hi] (endpoint-clustered)."""
    return lo + (hi - lo) * _cheb_fractions(n)
