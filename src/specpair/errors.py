"""Exception hierarchy shared across the package."""


class SpectralPairError(Exception):
    """Base class for every domain error raised by this package."""


class NotASublattice(SpectralPairError):
    """A lattice claimed to be contained in another is not."""


class UnknownDigit(SpectralPairError, ValueError):
    """A digit is not a member of the digit set it is supposed to index, or
    0 is missing from a digit set or a truncated spectrum."""


class NotExpansive(SpectralPairError):
    """The expansion map has an eigenvalue of modulus at most one."""


class BudgetExceeded(SpectralPairError):
    """A depth or size parameter lies beyond the configured budget."""


class DepthTooLarge(BudgetExceeded):
    """A refinement depth would exceed the atom budget."""


class CollisionDetected(SpectralPairError):
    """Two distinct digit words produced the same frequency."""


class MemberOfSpectrum(SpectralPairError):
    """The probed frequency already belongs to the enumerated spectrum."""


class IdenticalPoints(SpectralPairError):
    """Separating points requires two distinct points."""


class NonFinitePoint(SpectralPairError, ValueError):
    """A frequency or point has a NaN or infinite entry."""


class NotEmbeddable(SpectralPairError):
    """The domain does not embed injectively into the torus."""


class ParseError(SpectralPairError):
    """A factor-system document is malformed."""


class ValidationFailed(SpectralPairError):
    """A parsed factor system failed validation."""

    def __init__(self, report, message: str = "factor system failed validation"):
        super().__init__(message)
        self.report = report
