"""Certification toolkit for a unit-distance-avoiding subset of the unit
ball whose volume beats (1/2)^n of the ball in every dimension n >= 2.

The names below are the ones README.md and the CLI use; everything else
is imported from its submodule.  The three sampler names load
ballavoid.sampling, and with it numpy, on first access."""

from .concentration import best_certificate, concentration_bound, minimal_certified_n
from .construction import CANONICAL_OFFSET, ConstructionParams, component, equidistance_residual
from .errors import CertificateError, DomainError, NumericError
from .specfun import slab_fraction
from .volume import maximize_a, ratio_S, ratio_table

__all__ = [
    "CANONICAL_OFFSET",
    "CertificateError",
    "ConstructionParams",
    "DomainError",
    "NumericError",
    "SamplerConfig",
    "best_certificate",
    "component",
    "concentration_bound",
    "equidistance_residual",
    "maximize_a",
    "mc_volume_ratio",
    "minimal_certified_n",
    "pair_audit",
    "ratio_S",
    "ratio_table",
    "slab_fraction",
]

__version__ = "0.1.0"

_SAMPLING_NAMES = ("SamplerConfig", "mc_volume_ratio", "pair_audit")


def __getattr__(name):
    if name in _SAMPLING_NAMES:
        from . import sampling

        return getattr(sampling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
