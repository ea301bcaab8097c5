"""Exceptions shared across the package."""


class VerificationError(Exception):
    """Base class for failures of the certified computations."""


class CertificationError(VerificationError):
    """A certificate that the construction requires could not be established.

    This signals a genuine negative answer (or an input violating a
    precondition of a certified routine), not a lack of precision.
    """


class PrecisionBudgetError(VerificationError):
    """The working precision was too low to decide a certificate.

    Raised instead of silently returning an inconclusive answer; callers may
    run again at a higher working precision.
    """
