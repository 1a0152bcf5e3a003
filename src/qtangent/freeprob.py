"""Cauchy-Stieltjes transforms and the complex-analytic identities behind the
Biane construction: the closed transform of the free 1/2-stable semigroup,
its subordination function, the transition-transform identity and Stieltjes
inversion.

Transform arguments are plain Python complex numbers in the upper half-plane
(real points strictly left of the relevant branch point are also accepted).
All square roots take the standard (principal) branch; arguments within
1e-12 of a branch cut are rejected rather than silently evaluated, since the
uniqueness of the subordination function hinges on the branch choice.

``cauchy_stieltjes`` runs through ``quadrature.integrate`` (adaptive
10-point Gauss-Legendre on complex integrands, at most 400 intervals,
epsabs = 1e-12 and epsrel = 1e-11), which calls the density once per
refinement round on all open nodes.  It takes a density and its left edge:
finite (a half-line) or -inf (the line).  The randomized checks of these
identities live in ``verify``.
"""

import cmath
import math

from .errors import BranchCut, InvalidTime, NonConvergentLadder
from .quadrature import integrate, integrate_from_edge

__all__ = [
    "cauchy_stieltjes",
    "g_half_closed",
    "subordinator_F",
    "biane_H",
    "stieltjes_invert",
]

_SLIT_TOL = 1e-12
_EPS_LADDER = (1e-2, 1e-3, 1e-4)


def cauchy_stieltjes(density, lo, z):
    """G(z) = int density(x)/(z - x) dx over x > lo by quadrature, for Im z > 0.

    ``density`` maps an array of points (any shape) to values of that shape.
    A finite left edge ``lo`` is taken in x = lo + u^2, which removes the
    square-root vanishing every density here exhibits there; lo = -inf
    integrates over the line.  Maps the upper half-plane into the closed
    lower half-plane.
    """
    if not complex(z).imag > 0.0:
        raise BranchCut("quadrature transform needs Im z > 0")
    z = complex(z)
    tol = dict(epsabs=1e-12, epsrel=1e-11)

    def f(x):
        return density(x) / (z - x)
    if math.isfinite(lo):
        return integrate_from_edge(f, lo, **tol)
    return integrate(f, -math.inf, math.inf, **tol)


def _reject_slit(z, branch_point):
    """Reject points within 1e-12 of the cut [branch_point, inf) on the real axis."""
    z = complex(z)
    if z.real >= branch_point:
        dist = abs(z.imag)
    else:
        dist = abs(z - branch_point)
    if dist < _SLIT_TOL:
        raise BranchCut(f"z={z} lies on the branch cut [{branch_point}, inf)")
    return z


def g_half_closed(t, z):
    """Closed Cauchy-Stieltjes transform of the free 1/2-stable marginal.

    G_t(z) = -4 / (sqrt(t^2 - 4z) + t)^2 with the standard branch, analytic
    on the plane slit along [t^2/4, inf).
    """
    if not t > 0.0:
        raise InvalidTime(f"need t > 0, got {t}")
    z = _reject_slit(z, t * t / 4.0)
    root = cmath.sqrt(t * t - 4.0 * z)
    return -4.0 / (root + t) ** 2


def subordinator_F(s, t, z):
    """Subordination map with G_t = G_s o F for the free 1/2-stable semigroup.

    F(z) = (s^2 - (t - s + sqrt(t^2 - 4z))^2)/4, standard branch; satisfies
    Im F(z) >= Im z on the upper half-plane and F(iy)/(iy) -> 1.
    """
    if not 0.0 < s < t:
        raise InvalidTime(f"need 0 < s < t, got s={s}, t={t}")
    z = _reject_slit(z, t * t / 4.0)
    root = cmath.sqrt(t * t - 4.0 * z)
    return 0.25 * (s * s - (t - s + root) ** 2)


def biane_H(s, t, x, z):
    """Transition transform H_{s,t,x}(z) = 1/(-x - (t - s + sqrt(-z))^2).

    Cauchy-Stieltjes transform (in z) of the shifted-kernel transition law
    from state x at time s; cut along [0, inf).
    """
    if not 0.0 < s < t:
        raise InvalidTime(f"need 0 < s < t, got s={s}, t={t}")
    if not x > 0.0:
        raise InvalidTime(f"need state x > 0, got {x}")
    z = _reject_slit(z, 0.0)
    w = t - s + cmath.sqrt(-z)
    return 1.0 / (-x - w * w)  # w ** 2 raises OverflowError past |w| ~ 1e154, w * w gives inf


def stieltjes_invert(transform, y, return_ladder=False):
    """Recover a density value at y as -(1/pi) lim Im transform(y + i eps).

    Linear-in-eps Richardson extrapolation over the ladder eps = 1e-2, 1e-3,
    1e-4; the raw ladder is available via ``return_ladder``.  Raises
    NonConvergentLadder when successive raw values move apart instead of
    settling.
    """
    raw = [-complex(transform(complex(y, e))).imag / math.pi for e in _EPS_LADDER]
    steps = [abs(b - a) for a, b in zip(raw, raw[1:])]
    for d1, d2 in zip(steps, steps[1:]):
        if d2 > 2.0 * d1 + 1e-12:
            raise NonConvergentLadder(f"inversion ladder diverges at y={y}: {raw}")
    e1, e2 = _EPS_LADDER[-2], _EPS_LADDER[-1]
    v1, v2 = raw[-2], raw[-1]
    value = (v2 * e1 - v1 * e2) / (e1 - e2)
    return (value, raw) if return_ladder else value
