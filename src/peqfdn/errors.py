"""Exception types shared across the package."""

__all__ = [
    "PeqFdnError",
    "InvalidParameterError",
    "ParseError",
    "NonDecayingResponseError",
    "NumericalFailureError",
    "FitDivergenceError",
    "InstabilityError",
    "SampleRangeError",
    "InsufficientDecayError",
    "CampaignError",
]


class PeqFdnError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(PeqFdnError, ValueError):
    """A filter or model parameter violates its domain (fc <= 0, Q <= 0, ...)."""


class ParseError(PeqFdnError, ValueError):
    """Malformed input file; the message names the offending line."""


class NonDecayingResponseError(PeqFdnError, ValueError):
    """A magnitude response is >= 0 dB somewhere, i.e. the loop would not decay."""


class NumericalFailureError(PeqFdnError, ArithmeticError):
    """A non-finite value appeared during loss/gradient evaluation."""

    def __init__(self, message: str, param_index: int | None = None):
        super().__init__(message)
        self.param_index = param_index


class FitDivergenceError(PeqFdnError, ArithmeticError):
    """The optimization loss became non-finite."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class InstabilityError(PeqFdnError, ArithmeticError):
    """The FDN recursion produced a non-finite sample."""

    def __init__(self, message: str, sample_index: int | None = None):
        super().__init__(message)
        self.sample_index = sample_index


class SampleRangeError(PeqFdnError, ArithmeticError):
    """A sample lies past what the output format holds (float32 in a WAV)."""

    def __init__(self, message: str, sample_index: int | None = None):
        super().__init__(message)
        self.sample_index = sample_index


class InsufficientDecayError(PeqFdnError, ValueError):
    """An energy decay curve does not span the regression range."""


class CampaignError(PeqFdnError, RuntimeError):
    """Too many individual fits failed for the campaign to be meaningful."""
