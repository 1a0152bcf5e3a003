"""Cauchy-Stieltjes transforms and the complex-analytic identities behind the
Biane construction: the closed transform of the free 1/2-stable semigroup,
its subordination function, the transition-transform identity and Stieltjes
inversion.

Transform arguments are plain Python complex numbers in the upper half-plane
(real points strictly left of the relevant branch point are also accepted).
All square roots take the standard (principal) branch; arguments within
1e-12 of a branch cut are rejected rather than silently evaluated, since the
uniqueness of the subordination function hinges on the branch choice.

Quadrature transforms run through ``quadrature.integrate`` (adaptive
10-point Gauss-Legendre on complex integrands, at most 400 intervals), which
calls the density once per refinement round on all open nodes:
``cauchy_stieltjes`` at epsabs = 1e-12 and epsrel = 1e-11, the biane3 check
at epsabs = epsrel = 1e-10.  ``cauchy_stieltjes`` takes a density and its
left edge: finite (a half-line) or -inf (the line).
"""

import cmath
import math
from functools import partial

import numpy as np

from .errors import BranchCut, InvalidTime, NonConvergentLadder
from .kernels import biane_half_pdf, biane_shifted_pdf, cauchy_transition_pdf
from .quadrature import integrate, integrate_from_edge
from .sampling import SeedSpec

__all__ = [
    "cauchy_stieltjes",
    "g_half_closed",
    "subordinator_F",
    "biane_H",
    "stieltjes_invert",
    "verify_identities",
    "verification_report",
    "VERIFY_KINDS",
]

_SLIT_TOL = 1e-12


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
    root = cmath.sqrt(-z)
    return 1.0 / (-x - (t - s + root) ** 2)


def stieltjes_invert(transform, y, eps_ladder=(1e-2, 1e-3, 1e-4), return_ladder=False):
    """Recover a density value at y as -(1/pi) lim Im transform(y + i eps).

    Linear-in-eps Richardson extrapolation over the decreasing ladder; the
    raw ladder is available via ``return_ladder``.  Raises
    NonConvergentLadder when successive raw values move apart instead of
    settling.
    """
    eps_ladder = tuple(float(e) for e in eps_ladder)
    if len(eps_ladder) < 2 or any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise NonConvergentLadder("eps ladder must be strictly decreasing with >= 2 rungs")
    raw = [-complex(transform(complex(y, e))).imag / math.pi for e in eps_ladder]
    steps = [abs(b - a) for a, b in zip(raw, raw[1:])]
    for d1, d2 in zip(steps, steps[1:]):
        if d2 > 2.0 * d1 + 1e-12:
            raise NonConvergentLadder(f"inversion ladder diverges at y={y}: {raw}")
    e1, e2 = eps_ladder[-2], eps_ladder[-1]
    v1, v2 = raw[-2], raw[-1]
    value = (v2 * e1 - v1 * e2) / (e1 - e2)
    return (value, raw) if return_ladder else value


VERIFY_KINDS = ("subordination", "biane3", "inversion", "csk_quadrature", "f_unique")

_THRESHOLDS = {
    "subordination": 1e-10,
    "biane3": 1e-6,
    "inversion": 1e-4,
    "csk_quadrature": 1e-8,
    "f_unique": 1e-3,
}


def _sample_region(gen, n):
    re = gen.uniform(-10.0, 2.0, n)
    im = gen.uniform(0.1, 10.0, n)
    return re + 1j * im


def _biane3_quadrature(s, t, x, z):
    """int_0^inf p^(1/2)_{s,t}(x, y)/(z - y) dy with the y = u^2 substitution."""
    return integrate_from_edge(lambda y: biane_shifted_pdf(s, t, x, y) / (z - y), 0.0,
                               epsabs=1e-10, epsrel=1e-10)


def verify_identities(kind, sample_points=200, seed=SeedSpec(20260808)):
    """Maximum absolute residual of one identity family over random samples.

    Kinds: subordination (G_t = G_s o F, closed forms), biane3 (quadrature of
    the shifted kernel against H), inversion (Stieltjes inversion recovers
    densities), csk_quadrature (closed G_t against the quadrature transform),
    f_unique (conjugate symmetry, Im F >= Im z, and the F(iy)/(iy) -> 1
    asymptote, probed at y = 1e4 with gap t - s = 0.05, where the O((t-s)/
    sqrt(y)) approach is inside the tolerance).
    """
    gen = seed.generator()
    worst = 0.0
    if kind == "subordination":
        zs = np.append(_sample_region(gen, sample_points), [complex(-1.0, 0.0)])
        for z in zs:
            s = gen.uniform(0.05, 3.9)
            t = s + gen.uniform(0.05, 4.0 - s) if s < 3.95 else s + 0.05
            if z.imag == 0.0:
                s, t = 1.0, 2.0
            worst = max(worst, abs(g_half_closed(t, z) - g_half_closed(s, subordinator_F(s, t, z))))
        return worst
    if kind == "biane3":
        for _ in range(sample_points):
            s = gen.uniform(0.1, 2.0)
            t = s + gen.uniform(0.1, 2.0)
            x = gen.uniform(0.1, 4.0)
            z = complex(gen.uniform(-10.0, 2.0), gen.uniform(0.5, 10.0))
            worst = max(worst, abs(_biane3_quadrature(s, t, x, z) - biane_H(s, t, x, z)))
        # the closed real-z example from the construction
        worst = max(worst, abs(_biane3_quadrature(1.0, 2.0, 1.0, complex(-1.0, 1e-9)) - (-0.2)))
        return worst
    if kind == "inversion":
        # the time-1 marginals: the kernels started at the origin
        cauchy_1 = partial(cauchy_transition_pdf, 0.0, 1.0, 0.0)
        half_stable_1 = partial(biane_half_pdf, 0.0, 1.0, 0.0)
        checks = [
            (lambda z: 1.0 / (z + 1j), 0.0, 1.0 / math.pi),
            (lambda z: g_half_closed(1.0, z), 1.0, math.sqrt(3.0) / (2.0 * math.pi)),
            (lambda z: biane_H(1.0, 2.0, 1.0, z), 1.0, biane_shifted_pdf(1.0, 2.0, 1.0, 1.0)),
            (lambda z: cauchy_stieltjes(cauchy_1, -math.inf, z), 0.5, cauchy_1(0.5)),
            (lambda z: cauchy_stieltjes(half_stable_1, 0.25, z), 2.0, half_stable_1(2.0)),
        ]
        for transform, y, target in checks:
            worst = max(worst, abs(stieltjes_invert(transform, y) - target))
        return worst
    if kind == "csk_quadrature":
        for _ in range(sample_points):
            t = gen.uniform(0.2, 4.0)
            z = complex(gen.uniform(-10.0, 2.0), gen.uniform(0.5, 10.0))
            g = cauchy_stieltjes(partial(biane_half_pdf, 0.0, t, 0.0), t * t / 4.0, z)
            worst = max(worst, abs(g_half_closed(t, z) - g))
        return worst
    if kind == "f_unique":
        for z in _sample_region(gen, sample_points):
            s = gen.uniform(0.05, 3.9)
            t = s + gen.uniform(0.05, 4.0 - s)
            F = subordinator_F(s, t, z)
            worst = max(worst, max(0.0, z.imag - F.imag))
            Fc = subordinator_F(s, t, z.conjugate())
            worst = max(worst, abs(Fc - F.conjugate()))
        y = 1e4
        F = subordinator_F(1.0, 1.05, complex(0.0, y))
        worst = max(worst, abs(F / complex(0.0, y) - 1.0))
        return worst
    raise ValueError(f"unknown verification kind {kind!r}; choose from {VERIFY_KINDS}")


def verification_report(kinds=VERIFY_KINDS, sample_points=200, seed=SeedSpec(20260808)):
    """Run the identity families and report residuals against their thresholds."""
    report = []
    for kind in kinds:
        residual = verify_identities(kind, sample_points, seed)
        thr = _THRESHOLDS[kind]
        report.append({
            "kind": kind,
            "samples": sample_points,
            "max_residual": residual,
            "threshold": thr,
            "pass": bool(residual < thr),
        })
    return report
