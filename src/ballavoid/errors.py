"""Exception types shared across the package, and the one check of an
integer argument: a dimension, or a sampler's count."""

import numbers


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(RuntimeError):
    """A numerical scheme failed to reach its target accuracy.

    Carries diagnostics so callers can report the best available estimate.
    """

    def __init__(self, message, best_estimate=None, achieved_error=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error


class CertificateError(ValueError):
    """A concentration certificate cannot be issued for the given inputs."""


def checked_dimension(n, least: int, name: str = "dimension") -> int:
    """n as a Python int, when it is an integer (an int or numpy integer,
    both numbers.Integral), not a bool, of at least `least`; DomainError
    naming the argument `name` otherwise."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)
