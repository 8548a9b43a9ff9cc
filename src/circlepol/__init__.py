"""Discrete potentials, polarization, and extremal point configurations on
the unit circle.

The headline computation: for any nonincreasing convex kernel of the
geodesic distance, equally spaced points maximize the minimum of the
potential over the circle.  This package evaluates such potentials, finds
their minima, constructs the gap transport and homotopy underlying that
fact, and provides energy identities, asymptotics, and, for the even
inverse-power exponents, exact rational closed forms from even zeta values
and the Taylor coefficients of powers of sinc.  Every search for a minimum
refuses a kernel that is not non-increasing and convex on the grid of
``validate_kernel``; evaluating a potential takes any kernel.
"""

from .asymptotics import asymptotic_ratio, dominant_term, zeta_real
from .circle_config import (TWO_PI, Configuration, config_from_gaps,
                            config_from_json, equally_spaced, load_config_file)
from .energy import energy_equally_spaced, polarization_via_energy
from .exact_series import (ExactPolynomial, exact_polarization_polynomial,
                           sinc_power_coefficients, zeta_even_exact)
from .kernels import (CheckResult, Kernel, ValidationReport, custom_kernel,
                      log_kernel, power_kernel, riesz_kernel, validate_kernel)
from .optimizer import (OptimizeOptions, OptimizeResult, RestartRecord,
                        StrictnessReport, maximize_polarization,
                        perturbation_test)
from .potential import (PolarizationResult, minimum_on_arc, polarization,
                        potential_profile, potential_values)
from .transport import (InequalityReport, TransportPlan, check_pair_inequality,
                        min_curve, solve_gap_system, solve_transport)

__version__ = "0.1.0"

__all__ = [
    "TWO_PI",
    "CheckResult",
    "Configuration",
    "ExactPolynomial",
    "InequalityReport",
    "Kernel",
    "OptimizeOptions",
    "OptimizeResult",
    "PolarizationResult",
    "RestartRecord",
    "StrictnessReport",
    "TransportPlan",
    "ValidationReport",
    "asymptotic_ratio",
    "check_pair_inequality",
    "config_from_gaps",
    "config_from_json",
    "custom_kernel",
    "dominant_term",
    "energy_equally_spaced",
    "equally_spaced",
    "exact_polarization_polynomial",
    "load_config_file",
    "log_kernel",
    "maximize_polarization",
    "min_curve",
    "minimum_on_arc",
    "perturbation_test",
    "polarization",
    "polarization_via_energy",
    "potential_profile",
    "potential_values",
    "power_kernel",
    "riesz_kernel",
    "sinc_power_coefficients",
    "solve_gap_system",
    "solve_transport",
    "validate_kernel",
    "zeta_even_exact",
    "zeta_real",
]
