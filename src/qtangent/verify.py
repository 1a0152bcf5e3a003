"""Randomized integrity sweeps over the closed-form kernels, packaged as
reports for the CLI `verify` subcommand and the acceptance suite.

Covers normalization (each transition kernel integrates to 1 over its
target support), the Chapman-Kolmogorov composition, and the deterministic
time change identity p_{t-s}(x, y) = e^t kappa_{e^{2s}, e^{2t}}(e^s x, e^t y)
linking the q-OU kernel to the displayed q-BM product, evaluated here because
``kernels`` derives its q-BM kernel from this very identity.

Every integral runs through ``quadrature.integrate`` (adaptive 10-point
Gauss-Legendre, epsabs = epsrel = 1e-11, at most 400 intervals), which calls
the kernel once per refinement round on all open nodes.  Bounded q-OU and
q-BM supports are integrated in y = r sin(theta), which removes the
square-root vanishing at both edges; the Biane half-line goes through
``quadrature.integrate_from_edge`` (y = edge + u^2) for the same reason.
"""

import math

import numpy as np

from .kernels import (
    biane_half_pdf,
    cauchy_transition_pdf,
    qbm_transition_pdf,
    qou_transition_pdf,
)
from .qspecial import QParams
from .quadrature import integrate, integrate_from_edge
from .sampling import SeedSpec
from .tangent import TangentCase, convergence_study

__all__ = [
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


def _over_interval(f, r):
    """int_{-r}^{r} f(y) dy in y = r sin(theta)."""
    return integrate(lambda th: f(r * np.sin(th)) * (r * np.cos(th)),
                     -0.5 * math.pi, 0.5 * math.pi, **_TOL)


def _norm_case(gen, which):
    if which == "qou":
        q = gen.uniform(-0.9, 0.9)
        p = QParams(q)
        d = gen.uniform(0.05, 5.0)
        x = gen.uniform(-0.95, 0.95) * p.x_plus
        return _over_interval(lambda y: qou_transition_pdf(p, d, x, y), p.x_plus)
    if which == "qbm":
        q = gen.uniform(-0.9, 0.9)
        p = QParams(q)
        t1 = gen.uniform(0.1, 2.0)
        t2 = t1 + gen.uniform(0.05, 3.0)
        y1 = gen.uniform(-0.95, 0.95) * 2.0 * math.sqrt(t1 / (1.0 - q))
        b2 = 2.0 * math.sqrt(t2 / (1.0 - q))
        return _over_interval(lambda y: qbm_transition_pdf(p, t1, t2, y1, y), b2)
    if which == "cauchy":
        t1 = gen.uniform(0.0, 2.0)
        t2 = t1 + gen.uniform(0.05, 3.0)
        y1 = gen.uniform(-3.0, 3.0)
        return integrate(lambda y: cauchy_transition_pdf(t1, t2, y1, y),
                         -math.inf, math.inf, **_TOL)
    t1 = gen.uniform(0.05, 2.0)
    t2 = t1 + gen.uniform(0.05, 3.0)
    y1 = t1 * t1 / 4.0 + gen.uniform(0.05, 3.0)
    return integrate_from_edge(lambda y: biane_half_pdf(t1, t2, y1, y), t2 * t2 / 4.0, **_TOL)


def _row(kind, samples, worst, threshold):
    return {"kind": kind, "samples": samples, "max_residual": worst, "threshold": threshold,
            "pass": bool(worst < threshold)}


def _sweep(kind, residual, n_sets, seed, stream, threshold):
    """Report rows of the max residual(gen, family) over n_sets draws, per kernel family."""
    out = []
    for idx, which in enumerate(("qou", "qbm", "cauchy", "biane_half")):
        gen = SeedSpec(seed.base_seed, stream + idx).generator()
        worst = max(residual(gen, which) for _ in range(n_sets))
        out.append(_row(f"{kind}:{which}", n_sets, worst, threshold))
    return out


def kernel_normalization_report(n_sets=50, seed=SeedSpec(1)):
    """Max |integral - 1| per kernel family over randomized parameters, gated at 1e-7."""
    return _sweep("normalization", lambda gen, which: abs(_norm_case(gen, which) - 1.0),
                  n_sets, seed, 11, 1e-7)


def _ck_residual(gen, which):
    if which == "qou":
        q = gen.uniform(-0.9, 0.9)
        p = QParams(q)
        d1, d2 = gen.uniform(0.1, 1.5, 2)
        x = gen.uniform(-0.8, 0.8) * p.x_plus
        y = gen.uniform(-0.8, 0.8) * p.x_plus
        val = _over_interval(lambda z: qou_transition_pdf(p, d1, x, z)
                             * qou_transition_pdf(p, d2, z, y), p.x_plus)
        return abs(val - qou_transition_pdf(p, d1 + d2, x, y))
    if which == "qbm":
        q = gen.uniform(-0.9, 0.9)
        p = QParams(q)
        t1 = gen.uniform(0.1, 1.5)
        u = t1 + gen.uniform(0.1, 1.5)
        t2 = u + gen.uniform(0.1, 1.5)
        y1 = gen.uniform(-0.8, 0.8) * 2.0 * math.sqrt(t1 / (1.0 - q))
        y2 = gen.uniform(-0.8, 0.8) * 2.0 * math.sqrt(t2 / (1.0 - q))
        bu = 2.0 * math.sqrt(u / (1.0 - q))
        val = _over_interval(lambda z: qbm_transition_pdf(p, t1, u, y1, z)
                             * qbm_transition_pdf(p, u, t2, z, y2), bu)
        return abs(val - qbm_transition_pdf(p, t1, t2, y1, y2))
    if which == "cauchy":
        t1 = gen.uniform(0.0, 1.5)
        u = t1 + gen.uniform(0.1, 1.5)
        t2 = u + gen.uniform(0.1, 1.5)
        y1, y2 = gen.uniform(-2.0, 2.0, 2)
        val = integrate(lambda z: cauchy_transition_pdf(t1, u, y1, z)
                        * cauchy_transition_pdf(u, t2, z, y2), -math.inf, math.inf, **_TOL)
        return abs(val - cauchy_transition_pdf(t1, t2, y1, y2))
    t1 = gen.uniform(0.05, 1.0)
    u = t1 + gen.uniform(0.1, 1.0)
    t2 = u + gen.uniform(0.1, 1.0)
    y1 = t1 * t1 / 4.0 + gen.uniform(0.05, 2.0)
    y2 = t2 * t2 / 4.0 + gen.uniform(0.05, 2.0)
    val = integrate_from_edge(lambda z: biane_half_pdf(t1, u, y1, z)
                              * biane_half_pdf(u, t2, z, y2), u * u / 4.0, **_TOL)
    return abs(val - biane_half_pdf(t1, t2, y1, y2))


def chapman_kolmogorov_report(n_sets=50, seed=SeedSpec(2)):
    """Max |int p_1 p_2 - p_12| per kernel family over randomized parameters, gated at 1e-6."""
    return _sweep("chapman_kolmogorov", _ck_residual, n_sets, seed, 21, 1e-6)


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


def ou_bm_identity_report(n_points=100, seed=SeedSpec(3)):
    """Relative residual of the OU <-> BM kernel identity at random points, gated
    at 1e-10: q-OU from ``qou_transition_pdf``, q-BM from its displayed product."""
    gen = seed.generator()
    worst = 0.0
    for _ in range(n_points):
        q = gen.uniform(-0.9, 0.9)
        p = QParams(q)
        s = gen.uniform(-1.0, 1.0)
        t = s + gen.uniform(0.05, 2.0)
        x = gen.uniform(-0.9, 0.9) * p.x_plus
        y = gen.uniform(-0.9, 0.9) * p.x_plus
        lhs = qou_transition_pdf(p, t - s, x, y)
        rhs = math.exp(t) * _displayed_qbm(
            q, math.exp(2.0 * s), math.exp(2.0 * t), math.exp(s) * x, math.exp(t) * y
        )
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return [_row("ou_bm_identity", n_points, worst, 1e-10)]


def kernels_verification_report(n_sets=50, n_points=100, seed=SeedSpec(5)):
    """Normalization + Chapman-Kolmogorov + OU/BM identity, one report list."""
    report = []
    report += kernel_normalization_report(n_sets, SeedSpec(seed.base_seed, 1))
    report += chapman_kolmogorov_report(n_sets, SeedSpec(seed.base_seed, 2))
    report += ou_bm_identity_report(n_points, SeedSpec(seed.base_seed, 3))
    return report


def tangent_verification_report():
    """Convergence studies over the standard parameter grid, as report rows."""
    report = []

    def row(kind, rep, passed):
        report.append({
            "kind": kind, "q": rep.case.q, "s": rep.case.s, "x": rep.case.x,
            "max_residual": rep.ladder[-1][1], "threshold": rep.threshold,
            "ladder": [r[1] for r in rep.ladder],
            "horizon": rep.window.t2,
            "pass": bool(passed),
        })

    def run(case):
        rep = convergence_study(case, _LADDER)
        row(f"tangent:{case.case}", rep, rep.verdict)

    for q in _QS:
        xp = 2.0 / math.sqrt(1.0 - q)
        for frac in (0.0, 0.5, -0.5):
            run(TangentCase("qou_interior", q, x=frac * xp))
        run(TangentCase("qou_boundary", q))
        for s in _S_VALUES:
            half = 2.0 * math.sqrt(s / (1.0 - q))
            for frac in (0.0, 0.5, -0.5):
                run(TangentCase("qbm_interior", q, x=frac * half, s=s))
            run(TangentCase("qbm_boundary", q, s=s))
    # negative control: a wrong limit scale must fail
    control = convergence_study(TangentCase("qou_interior", 0.5, x=0.5 * 2.0 / math.sqrt(0.5)),
                                _LADDER, scale_override=1.0)
    row("tangent:negative_control", control, not control.verdict)
    return report
