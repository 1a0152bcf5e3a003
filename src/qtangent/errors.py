"""Exception types shared across the package."""


class QTangentError(Exception):
    """Base class for all qtangent errors."""


class NonConvergent(QTangentError):
    """An infinite product or series does not converge for the given parameters."""


class TruncationExceeded(QTangentError):
    """k_max factors were consumed before the truncation tolerance was met."""


class InvalidTime(QTangentError):
    """Time arguments violate ordering or positivity requirements."""


class InvalidState(QTangentError):
    """A state argument lies outside the support of its process."""


class InvalidThreshold(QTangentError):
    """A threshold argument is outside its admissible range."""


class InvalidCount(QTangentError):
    """A count argument (paths, samples) is below its minimum."""


class InvalidSeed(QTangentError):
    """A seed lies outside the range its random draws are keyed on."""


class UnknownProcess(QTangentError):
    """Process tag not recognised."""


class NonFinite(QTangentError):
    """A density evaluated to NaN or infinity in the interior of its support."""


class EnvelopeExceeded(QTangentError):
    """A rejection sampler's acceptance ratio rose above its envelope bound."""


class OutOfSupport(QTangentError):
    """A rescaled point left the state space."""


class BranchCut(QTangentError):
    """Argument lies on (or within 1e-12 of) the branch cut of a square root."""


class QuadratureFailure(QTangentError):
    """Numerical integration did not reach the requested accuracy."""


class NonConvergentLadder(QTangentError):
    """Successive Stieltjes-inversion values diverge instead of settling."""
