"""Every verification suite of the CLI `verify` subcommand and the acceptance
suite: the kernel sweeps, the free-probability identities of ``freeprob``
and the tangent studies, reported as rows of one shape (``_row``).  The
randomized suites draw their cases from the keyed uniforms ``sampling.uniforms``
of an integer seed in [0, 2^64), one key per family (``_cases``).

The kernel sweeps cover normalization (each transition kernel integrates to
1 over its target support), the Chapman-Kolmogorov composition, and the
deterministic time change identity p_{t-s}(x, y) = e^t kappa_{e^{2s},
e^{2t}}(e^s x, e^t y) linking the q-OU kernel to the displayed q-BM product,
evaluated here because ``kernels`` derives its q-BM kernel from this very
identity.

Every integral runs through ``quadrature.integrate`` (adaptive 10-point
Gauss-Legendre, epsabs = epsrel = 1e-11, at most 400 intervals), which calls
the kernel once per refinement round on all open nodes.  Bounded q-OU and
q-BM supports are integrated in y = r sin(theta), which removes the
square-root vanishing at both edges; the Biane half-line goes through
``quadrature.integrate_from_edge`` (y = edge + u^2) for the same reason.
The biane3 check integrates at epsabs = epsrel = 1e-10.
"""

import math
from functools import partial

import numpy as np

from .errors import InvalidCount
from .freeprob import (
    biane_H,
    cauchy_stieltjes,
    g_half_closed,
    stieltjes_invert,
    subordinator_F,
)
from .kernels import (
    biane_half_pdf,
    biane_shifted_pdf,
    cauchy_transition_pdf,
    qbm_transition_pdf,
    qou_transition_pdf,
    x_plus,
)
from .quadrature import integrate, integrate_from_edge
from .sampling import uniforms
from .tangent import TangentCase, convergence_study

__all__ = [
    "verify_identities",
    "freeprob_verification_report",
    "kernel_normalization_report",
    "chapman_kolmogorov_report",
    "ou_bm_identity_report",
    "kernels_verification_report",
    "tangent_verification_report",
]

# the tangent study grid: q values, q-BM base times and the eps ladder
_QS = (-0.5, 0.0, 0.5, 0.9)
_S_VALUES = (0.5, 1.0, 2.0)
_LADDER = (0.2, 0.1, 0.05, 0.02, 0.01)
_TOL = dict(epsabs=1e-11, epsrel=1e-11)
# the free-probability identity families, in report order, with their thresholds
_FREEPROB = {
    "subordination": 1e-10,
    "biane3": 1e-6,
    "inversion": 1e-4,
    "csk_quadrature": 1e-8,
    "f_unique": 1e-3,
}
# each kernel family's (lo, hi) ranges of a case, as _norm_integral and _ck_residual unpack them
_NORM = {
    "qou": ((-0.9, 0.9), (0.05, 5.0), (-0.95, 0.95)),
    "qbm": ((-0.9, 0.9), (0.1, 2.0), (0.05, 3.0), (-0.95, 0.95)),
    "cauchy": ((0.0, 2.0), (0.05, 3.0), (-3.0, 3.0)),
    "biane_half": ((0.05, 2.0), (0.05, 3.0), (0.05, 3.0)),
}
_CK = {
    "qou": ((-0.9, 0.9), (0.1, 1.5), (0.1, 1.5), (-0.8, 0.8), (-0.8, 0.8)),
    "qbm": ((-0.9, 0.9), (0.1, 1.5), (0.1, 1.5), (0.1, 1.5), (-0.8, 0.8), (-0.8, 0.8)),
    "cauchy": ((0.0, 1.5), (0.1, 1.5), (0.1, 1.5), (-2.0, 2.0), (-2.0, 2.0)),
    "biane_half": ((0.05, 1.0), (0.1, 1.0), (0.1, 1.0), (0.05, 2.0), (0.05, 2.0)),
}


def _over_interval(f, r):
    """int_{-r}^{r} f(y) dy in y = r sin(theta)."""
    return integrate(lambda th: f(r * np.sin(th)) * (r * np.cos(th)),
                     -0.5 * math.pi, 0.5 * math.pi, **_TOL)


def _cases(seed, family, n, *ranges):
    """n rows of one value lo + (hi - lo) u per (lo, hi) range, as Python floats: row i
    takes its u from ``uniforms(seed, family, i, j)``, three to each counter word j."""
    lo, hi = np.array(ranges).T
    try:
        u = uniforms(seed, family, np.arange(n)[:, None], np.arange(-(-len(ranges) // 3)))
    except ValueError:  # numpy cannot size them: "Maximum allowed size exceeded"
        raise InvalidCount(f"{n} sample points are too many to hold") from None
    return (lo + (hi - lo) * u.reshape(n, 3 * u.shape[1])[:, :len(ranges)]).tolist()


def _row(kind, samples, worst, threshold):
    return {"kind": kind, "samples": samples, "max_residual": worst, "threshold": threshold,
            "pass": bool(worst < threshold)}


def _sweep(kind, residual, ranges, n_sets, seed, first, threshold):
    """Report rows of the max residual(family, *case) over n_sets cases, per kernel family
    of the table of ranges; family i draws its cases from key first + i of the seed."""
    out = []
    for idx, (which, bounds) in enumerate(ranges.items()):
        worst = max(residual(which, *case) for case in _cases(seed, first + idx, n_sets, *bounds))
        out.append(_row(f"{kind}:{which}", n_sets, worst, threshold))
    return out


def _norm_integral(which, *case):
    if which == "qou":
        q, d, f = case
        xp = x_plus(q)
        return _over_interval(lambda y: qou_transition_pdf(q, d, f * xp, y), xp)
    if which == "qbm":
        q, t1, dt, f = case
        t2, xp = t1 + dt, x_plus(q)  # the q-BM support at time t is sqrt(t) times q-OU's
        y1, b2 = f * xp * math.sqrt(t1), xp * math.sqrt(t2)
        return _over_interval(lambda y: qbm_transition_pdf(q, t1, t2, y1, y), b2)
    if which == "cauchy":
        t1, dt, y1 = case
        return integrate(lambda y: cauchy_transition_pdf(t1, t1 + dt, y1, y),
                         -math.inf, math.inf, **_TOL)
    t1, dt, e = case
    t2, y1 = t1 + dt, t1 * t1 / 4.0 + e
    return integrate_from_edge(lambda y: biane_half_pdf(t1, t2, y1, y), t2 * t2 / 4.0, **_TOL)


def kernel_normalization_report(n_sets=50, seed=1):
    """Max |integral - 1| per kernel family over randomized parameters, gated at 1e-7."""
    return _sweep("normalization", lambda which, *case: abs(_norm_integral(which, *case) - 1.0),
                  _NORM, n_sets, seed, 11, 1e-7)


def _ck_residual(which, *case):
    if which == "qou":
        q, d1, d2, fx, fy = case
        xp = x_plus(q)
        x, y = fx * xp, fy * xp
        val = _over_interval(lambda z: qou_transition_pdf(q, d1, x, z)
                             * qou_transition_pdf(q, d2, z, y), xp)
        return abs(val - qou_transition_pdf(q, d1 + d2, x, y))
    if which == "qbm":
        q, t1, du, dt, f1, f2 = case
        u = t1 + du
        t2, xp = u + dt, x_plus(q)
        y1, y2, bu = f1 * xp * math.sqrt(t1), f2 * xp * math.sqrt(t2), xp * math.sqrt(u)
        val = _over_interval(lambda z: qbm_transition_pdf(q, t1, u, y1, z)
                             * qbm_transition_pdf(q, u, t2, z, y2), bu)
        return abs(val - qbm_transition_pdf(q, t1, t2, y1, y2))
    t1, du, dt, a, b = case
    u = t1 + du
    t2 = u + dt
    if which == "cauchy":
        val = integrate(lambda z: cauchy_transition_pdf(t1, u, a, z)
                        * cauchy_transition_pdf(u, t2, z, b), -math.inf, math.inf, **_TOL)
        return abs(val - cauchy_transition_pdf(t1, t2, a, b))
    y1, y2 = t1 * t1 / 4.0 + a, t2 * t2 / 4.0 + b
    val = integrate_from_edge(lambda z: biane_half_pdf(t1, u, y1, z)
                              * biane_half_pdf(u, t2, z, y2), u * u / 4.0, **_TOL)
    return abs(val - biane_half_pdf(t1, t2, y1, y2))


def chapman_kolmogorov_report(n_sets=50, seed=2):
    """Max |int p_1 p_2 - p_12| per kernel family over randomized parameters, gated at 1e-6."""
    return _sweep("chapman_kolmogorov", _ck_residual, _CK, n_sets, seed, 21, 1e-6)


def _displayed_qbm(q, t1, t2, y1, y2):
    """q-BM kernel (1-q)^{3/2} (t2-t1)/(2 pi) sqrt(4 t2 - (1-q) y2^2) / phi*_0
    prod_{k>=1} psi*_k / phi*_k from the displayed two-time forms phi*_k and psi*_k.
    """
    qk = np.power(q, np.arange(401.0))  # k <= 400: |q|^k < 1e-18 for the |q| <= 0.9 drawn
    q2k = qk * qk
    c1 = 1.0 - q
    phi = (t2 - t1 * q2k) ** 2 - c1 * qk * (t2 + t1 * q2k) * y1 * y2 \
        + c1 * (t1 * y2 * y2 + t2 * y1 * y1) * q2k
    qk = qk[1:]
    psi = (t2 - t1 * qk) * (1.0 - q * qk) * (t2 * (1.0 + qk) ** 2 - c1 * y2 * y2 * qk)
    head = c1 ** 1.5 * (t2 - t1) / (2.0 * math.pi) * math.sqrt(4.0 * t2 - c1 * y2 * y2)
    return float(head / phi[0] * np.prod(psi / phi[1:]))


def ou_bm_identity_report(n_points=100, seed=3):
    """Relative residual of the OU <-> BM kernel identity at random points, gated
    at 1e-10: q-OU from ``qou_transition_pdf``, q-BM from its displayed product.
    The points are the cases of key 3 of the seed."""
    worst = 0.0
    for q, s, dt, fx, fy in _cases(seed, 3, n_points, (-0.9, 0.9), (-1.0, 1.0), (0.05, 2.0),
                                   (-0.9, 0.9), (-0.9, 0.9)):
        xp = x_plus(q)
        t, x, y = s + dt, fx * xp, fy * xp
        lhs = qou_transition_pdf(q, t - s, x, y)
        rhs = math.exp(t) * _displayed_qbm(
            q, math.exp(2.0 * s), math.exp(2.0 * t), math.exp(s) * x, math.exp(t) * y
        )
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return [_row("ou_bm_identity", n_points, worst, 1e-10)]


def kernels_verification_report(n_sets=50, n_points=100, seed=5):
    """Normalization + Chapman-Kolmogorov + OU/BM identity, one report list."""
    return (kernel_normalization_report(n_sets, seed) + chapman_kolmogorov_report(n_sets, seed)
            + ou_bm_identity_report(n_points, seed))


def _biane3_quadrature(s, t, x, z):
    """int_0^inf p^(1/2)_{s,t}(x, y)/(z - y) dy with the y = u^2 substitution."""
    return integrate_from_edge(lambda y: biane_shifted_pdf(s, t, x, y) / (z - y), 0.0,
                               epsabs=1e-10, epsrel=1e-10)


def verify_identities(kind, sample_points=200, seed=20260808):
    """Maximum absolute residual of one free-probability identity family over
    random samples, the cases of the kind's own key (31 on, in ``_FREEPROB``
    order) of the seed.

    Kinds: subordination (G_t = G_s o F, closed forms), biane3 (quadrature of
    the shifted kernel against H), inversion (Stieltjes inversion recovers
    densities), csk_quadrature (closed G_t against the quadrature transform),
    f_unique (conjugate symmetry, Im F >= Im z, and the F(iy)/(iy) -> 1
    asymptote, probed at y = 1e4 with gap t - s = 0.05, where the O((t-s)/
    sqrt(y)) approach is inside the tolerance).
    """
    if kind not in _FREEPROB:
        raise ValueError(f"unknown verification kind {kind!r}; choose from {tuple(_FREEPROB)}")
    draw = partial(_cases, seed, 31 + list(_FREEPROB).index(kind), sample_points)
    def region():  # z with re in (-10, 2) and im in (0.1, 10), s in (0.05, 3.9)
        return [(complex(re, im), s, s + 0.05 + (3.95 - s) * u)  # t - s in (0.05, 4 - s)
                for re, im, s, u in draw((-10.0, 2.0), (0.1, 10.0), (0.05, 3.9), (0.0, 1.0))]
    worst = 0.0
    if kind == "subordination":
        for z, s, t in region() + [(complex(-1.0, 0.0), 1.0, 2.0)]:  # the closed real-z example
            worst = max(worst, abs(g_half_closed(t, z) - g_half_closed(s, subordinator_F(s, t, z))))
        return worst
    if kind == "biane3":
        for s, dt, x, re, im in draw((0.1, 2.0), (0.1, 2.0), (0.1, 4.0), (-10.0, 2.0), (0.5, 10.0)):
            z = complex(re, im)
            worst = max(worst, abs(_biane3_quadrature(s, s + dt, x, z) - biane_H(s, s + dt, x, z)))
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
        for t, re, im in draw((0.2, 4.0), (-10.0, 2.0), (0.5, 10.0)):
            z = complex(re, im)
            g = cauchy_stieltjes(partial(biane_half_pdf, 0.0, t, 0.0), t * t / 4.0, z)
            worst = max(worst, abs(g_half_closed(t, z) - g))
        return worst
    for z, s, t in region():  # f_unique
        F = subordinator_F(s, t, z)
        worst = max(worst, z.imag - F.imag, abs(subordinator_F(s, t, z.conjugate()) - F.conjugate()))
    iy = complex(0.0, 1e4)
    return max(worst, abs(subordinator_F(1.0, 1.05, iy) / iy - 1.0))


def freeprob_verification_report(sample_points, seed):
    """Every free-probability identity family against its threshold, as report rows."""
    return [_row(kind, sample_points, verify_identities(kind, sample_points, seed), threshold)
            for kind, threshold in _FREEPROB.items()]


def tangent_verification_report():
    """Convergence studies over the standard parameter grid, as report rows."""
    report = []

    def row(kind, rep, passed):
        l1s = [r["l1"] for r in rep["ladder"]]
        report.append({
            "kind": kind, "q": rep["q"], "s": rep["s"], "x": rep["x"],
            "max_residual": l1s[-1], "threshold": rep["threshold"], "ladder": l1s,
            "horizon": rep["window"]["t2"],
            "pass": passed,
        })

    def run(case):
        rep = convergence_study(case, _LADDER)
        row(f"tangent:{case.case}", rep, rep["verdict"] == "pass")

    for q in _QS:
        xp = x_plus(q)
        for frac in (0.0, 0.5, -0.5):
            run(TangentCase("qou_interior", q, x=frac * xp))
        run(TangentCase("qou_boundary", q))
        for s in _S_VALUES:
            half = 2.0 * math.sqrt(s / (1.0 - q))
            for frac in (0.0, 0.5, -0.5):
                run(TangentCase("qbm_interior", q, x=frac * half, s=s))
            run(TangentCase("qbm_boundary", q, s=s))
    # negative control: a wrong limit scale must fail
    control = convergence_study(TangentCase("qou_interior", 0.5, x=0.5 * x_plus(0.5)),
                                _LADDER, scale_override=1.0)
    row("tangent:negative_control", control, control["verdict"] == "fail")
    return report
