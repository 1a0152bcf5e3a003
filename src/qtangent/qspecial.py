"""q-series building blocks: the deformation parameter and the truncation policy.

Every kernel product in ``kernels`` has factors that approach 1 geometrically
in k; ``series_terms`` says where a ``TruncationPolicy`` cuts them.
Everything here is a pure function of its arguments.
"""

import math
from dataclasses import dataclass, field

from .errors import NonConvergent, TruncationExceeded

__all__ = [
    "QParams",
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "series_terms",
]


@dataclass(frozen=True)
class QParams:
    """Deformation parameter q in (-1, 1) plus the support endpoints it induces.

    The marginal law lives on the closed interval [x_minus, x_plus] with
    x_plus = 2/sqrt(1-q).
    """

    q: float
    x_plus: float = field(init=False)
    x_minus: float = field(init=False)

    def __post_init__(self):
        if not -1.0 < self.q < 1.0:
            raise NonConvergent(f"q must lie in (-1, 1), got {self.q}")
        xp = 2.0 / math.sqrt(1.0 - self.q)
        object.__setattr__(self, "x_plus", xp)
        object.__setattr__(self, "x_minus", -xp)


@dataclass(frozen=True)
class TruncationPolicy:
    """Where to cut the infinite products.

    Products are truncated once the next factor differs from 1 by less than
    ``rel_tol * (1 - |q|)``; geometric decay of the factors then bounds the
    total relative error by a small multiple of ``rel_tol``.
    """

    rel_tol: float = 1e-14
    k_max: int = 10_000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")

    def threshold(self, q):
        return self.rel_tol * (1.0 - abs(q))


DEFAULT_POLICY = TruncationPolicy()


def series_terms(q, policy=DEFAULT_POLICY):
    """Number of product terms after which |q|^k drops below the policy threshold.

    Two extra decades below the threshold cover the O(1) constants that
    multiply q^k in the factor families.  Raises TruncationExceeded if k_max
    is insufficient.
    """
    if q == 0.0:
        return 1
    thr = policy.threshold(q) * 1e-2
    n = int(math.ceil(math.log(thr) / math.log(abs(q))))
    n = max(n, 1)
    if n > policy.k_max:
        raise TruncationExceeded(
            f"need {n} terms at q={q} but k_max={policy.k_max}"
        )
    return n
