"""Shared exception types.

Raising instead of returning sentinel values keeps the numeric pipelines
honest: a failed certification or a blown budget must abort the computation
that asked for it.
"""

# why a report holding a NaN (or a T or N past the float range) fails
NAN_REPORT = "a report value is NaN (a float computation overflowed)"


class SmtlabError(Exception):
    """Base class for package errors."""


class BudgetExceededError(SmtlabError):
    """A configured expansion or reduction budget was exhausted."""


class CertificationError(SmtlabError):
    """A numeric result could not be certified to the required tolerance."""


class DegenerateInputError(SmtlabError):
    """Input violates a mathematical precondition (zero map, empty family...)."""


class UnsupportedOperationError(SmtlabError):
    """Operation whose result would put an exponential term over a
    non-constant denominator, which no analytic function can hold."""


class ExactEvalUnavailableError(SmtlabError):
    """Exact rational evaluation requested for a function with an
    exponential term."""


class ValidationError(SmtlabError):
    """A scenario file or CLI input failed validation."""
