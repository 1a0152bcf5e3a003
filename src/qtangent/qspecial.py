"""q-series building blocks: the deformation parameter q and the product length.

Every kernel product in ``kernels`` has factors that approach 1 geometrically
in k; ``series_terms`` says after how many terms a relative tolerance cuts
them, at most 10,000.  Everything here is a pure function of its arguments.
"""

import math
from dataclasses import dataclass, field

from .errors import NonConvergent, TruncationExceeded

__all__ = [
    "QParams",
    "series_terms",
]

# Most product terms any kernel evaluates: enough for |q| <= 0.995 at rel_tol 1e-14
_K_MAX = 10_000


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


def series_terms(q, rel_tol=1e-14):
    """Number of product terms after which |q|^k drops below rel_tol (1 - |q|) 1e-2.

    Products are cut once the next factor differs from 1 by less than
    rel_tol (1 - |q|); geometric decay of the factors then bounds the total
    relative error by a small multiple of rel_tol.  The two extra decades
    cover the O(1) constants that multiply q^k in the factor families.
    Raises TruncationExceeded if that needs more than 10,000 terms.
    """
    if q == 0.0:
        return 1
    thr = rel_tol * (1.0 - abs(q)) * 1e-2
    n = int(math.ceil(math.log(thr) / math.log(abs(q))))
    n = max(n, 1)
    if n > _K_MAX:
        raise TruncationExceeded(f"need {n} terms at q={q} but k_max={_K_MAX}")
    return n
