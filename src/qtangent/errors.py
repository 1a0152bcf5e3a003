"""Exception types shared across the package."""


class QTangentError(Exception):
    """Base class for all qtangent errors."""


class NonConvergent(QTangentError):
    """An infinite product or series does not converge for the given parameters."""


class TruncationExceeded(QTangentError):
    """k_max factors were consumed before the truncation tolerance was met."""


class DivergentTerm(QTangentError):
    """A denominator term of a product ratio is non-positive inside the truncation range."""


class InvalidTime(QTangentError):
    """Time arguments violate ordering or positivity requirements."""


# freeprob uses the plural in its contracts; same condition.
InvalidTimes = InvalidTime


class InvalidState(QTangentError):
    """A state argument lies outside the support of its process."""


class InvalidInit(QTangentError):
    """Initial condition incompatible with the requested process."""


class InvalidThreshold(QTangentError):
    """A threshold argument is outside its admissible range."""


class InvalidCount(QTangentError):
    """A count argument (paths, samples) is below its minimum."""


class UnknownProcess(QTangentError):
    """Process tag not recognised."""


class NotNormalized(QTangentError):
    """A density failed its total-mass check."""


class NonFinite(QTangentError):
    """A density evaluated to NaN or infinity in the interior of its support."""


class OutOfSupport(QTangentError):
    """A rescaled point left the state space; carries the offending coordinate."""

    def __init__(self, message, coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate


class BranchCut(QTangentError):
    """Argument lies on (or within 1e-12 of) the branch cut of a square root."""


class QuadratureFailure(QTangentError):
    """Numerical integration did not reach the requested accuracy."""


class NonConvergentLadder(QTangentError):
    """Successive Stieltjes-inversion values diverge instead of settling."""
