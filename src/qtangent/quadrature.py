"""Globally adaptive Gauss-Legendre quadrature over whole arrays.

``integrate(f, a, b, epsabs, epsrel)`` calls ``f`` once per refinement round, on a 2-D
array holding the nodes of every interval still being refined, so a
broadcasting kernel costs one call per round rather than one per node.
Each interval's error is |G(I) - G(L) - G(R)|, the n-point rule on the
interval against the same rule on its halves; the halves' sum is the value
kept.  Each round bisects the fewest worst intervals whose errors cover the
excess over the tolerance.  Infinite limits are mapped onto (-1, 1) or
[0, 1); complex integrands are accepted.  ``integrate_from_edge`` takes a
half-line in x = edge + u^2, which removes the square-root vanishing of a
density at its support edge.
"""

import math

import numpy as np

from .errors import QuadratureFailure

__all__ = ["integrate", "integrate_from_edge"]

_X, _W = np.polynomial.legendre.leggauss(10)
_LIMIT = 400  # most intervals held at once


def _rule(f, lo, hi):
    """n-point Gauss-Legendre values on the intervals of the joined parts lo, hi; one call of f."""
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    half = 0.5 * (hi - lo)
    x = (lo + half)[:, None] + half[:, None] * _X
    return half * (f(x) @ _W)


def _finite(f, a, b):
    """(g, lo, hi) with lo, hi finite and int_lo^hi g = int_a^b f."""
    if math.isfinite(a) and math.isfinite(b):
        return f, a, b
    if not (math.isfinite(a) or math.isfinite(b)):  # x = t / (1 - t^2)
        def g(t):
            s = 1.0 / (1.0 - t * t)
            return f(t * s) * ((1.0 + t * t) * s * s)
        return g, -1.0, 1.0
    sign, edge = (1.0, a) if math.isfinite(a) else (-1.0, b)

    def g(t):  # x = edge +- t / (1 - t)
        s = 1.0 / (1.0 - t)
        return f(edge + sign * (t * s)) * (s * s)
    return g, 0.0, 1.0


def integrate(f, a, b, epsabs, epsrel):
    """int_a^b f(x) dx for a < b (either may be infinite) and a vectorized f.

    ``f`` takes an array of nodes and returns values of the same shape, real
    or complex.  Stops when the summed error estimate is at most
    max(epsabs, epsrel |value|).  Raises QuadratureFailure when that needs
    more than ``_LIMIT`` intervals, or when f is not finite at a node.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    g, lo, hi = _finite(f, a, b)
    lo, hi = np.array([lo]), np.array([hi])
    mid = 0.5 * (lo + hi)
    # per interval: the rule on it (coarse) and on its left and right halves
    coarse, left, right = _rule(g, (lo, lo, mid), (hi, mid, hi)).reshape(3, 1)
    while True:
        fine = left + right
        err = np.abs(coarse - fine)
        value, excess = fine.sum(), err.sum()
        if not (np.isfinite(value) and np.isfinite(excess)):
            raise QuadratureFailure("integrand is not finite at a quadrature node")
        excess -= max(epsabs, epsrel * abs(value))
        if excess <= 0.0:
            return complex(value) if np.iscomplexobj(value) else float(value)
        worst = np.argsort(err, kind="stable")[::-1]
        n_split = min(int(np.searchsorted(np.cumsum(err[worst]), excess)) + 1, _LIMIT - len(err))
        if n_split <= 0:
            raise QuadratureFailure(f"no convergence within {_LIMIT} intervals "
                                    f"(error estimate {err.sum():.3g}, value {value:.6g})")
        split, keep = worst[:n_split], worst[n_split:]
        mid = 0.5 * (lo[split] + hi[split])
        # the halves become intervals whose own rule is already known
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_mid = 0.5 * (new_lo + new_hi)
        quarters = _rule(g, (new_lo, new_mid), (new_mid, new_hi)).reshape(2, -1)
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        coarse = np.concatenate((coarse[keep], left[split], right[split]))
        left = np.concatenate((left[keep], quarters[0]))
        right = np.concatenate((right[keep], quarters[1]))


def integrate_from_edge(f, edge, epsabs, epsrel):
    """int_edge^inf f(x) dx in x = edge + u^2."""
    return integrate(lambda u: f(edge + u * u) * (2.0 * u), 0.0, math.inf, epsabs, epsrel)
