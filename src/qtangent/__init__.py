"""Densities, exact-transition simulation, tangent-process convergence studies
and free-probability transform identities for q-Ornstein-Uhlenbeck processes
and q-Brownian motions, q in (-1, 1).
"""

from .qspecial import QParams

__version__ = "0.1.0"

__all__ = ["QParams", "__version__"]
