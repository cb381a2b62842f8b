"""Exception types shared across the package."""


class MbsdejError(Exception):
    """Base class for all package-specific errors."""


class DomainViolation(MbsdejError):
    """Evaluation of an increasing family outside its domain."""


class NoBracket(MbsdejError):
    """Bisection could not bracket the graph/line intersection.

    Usually signals an ill-posed family, e.g. a non-monotone body evaluator.
    """


class BudgetExceeded(MbsdejError):
    """A scenario tree would exceed the configured node budget."""


class ContractionFailure(MbsdejError):
    """Implicit step could not be made contractive within the substep budget,
    or its sweeps did not converge (the message names t and the worst point)."""


class MonotonicityBreach(MbsdejError):
    """Penalized values decreased across levels beyond tolerance."""


class SegmentMismatch(MbsdejError):
    """Consecutive truncation levels disagree on their overlap region."""


class InvalidSelection(MbsdejError):
    """A graph selection pair (alpha, beta) is not in Gr(k_t)."""


class HypothesisViolated(MbsdejError):
    """The sampled hypotheses of a comparison-type check do not hold."""


class ParseError(MbsdejError):
    """Malformed problem-config text."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownName(MbsdejError):
    """A config referenced a registry name that does not exist."""


class ValidationError(MbsdejError):
    """A config failed assumption validation before solving."""
