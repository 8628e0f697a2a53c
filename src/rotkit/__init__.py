"""Rotation numbers and rotation intervals of degree-one circle map liftings."""

from .envelope import (
    ConstantSection,
    MonotoneEnvelope,
    NumericEnvelopeFailure,
    find_maximal_sections,
    lower_map,
    upper_map,
    widest_section,
)
from .families import (
    GOLDEN_MEAN,
    InvalidParam,
    build_lifting,
    counterexample_map,
    disc_standard,
    f_mu,
    pwl_standard,
    standard_map,
)
from .lifting import Lifting, evaluate_exact
from .rotnum import (
    DEFAULT_ERROR,
    DEFAULT_SIMO_N,
    DEFAULT_TOL,
    InvalidSection,
    PeriodicOrbitDetected,
    RotationEstimate,
    RotationInterval,
    SimoBracket,
    rho_constant_section,
    rho_constant_section_exact,
    rho_csb,
    rho_direct,
    rho_simo,
    rotation_interval,
)

__all__ = [
    "ConstantSection",
    "DEFAULT_ERROR",
    "DEFAULT_SIMO_N",
    "DEFAULT_TOL",
    "GOLDEN_MEAN",
    "InvalidParam",
    "InvalidSection",
    "Lifting",
    "MonotoneEnvelope",
    "NumericEnvelopeFailure",
    "PeriodicOrbitDetected",
    "RotationEstimate",
    "RotationInterval",
    "SimoBracket",
    "build_lifting",
    "counterexample_map",
    "disc_standard",
    "evaluate_exact",
    "f_mu",
    "find_maximal_sections",
    "lower_map",
    "pwl_standard",
    "rho_constant_section",
    "rho_constant_section_exact",
    "rho_csb",
    "rho_direct",
    "rho_simo",
    "rotation_interval",
    "standard_map",
    "upper_map",
    "widest_section",
]

__version__ = "0.1.0"
