"""Fourier transforms of regular semisimple coadjoint orbits.

Evaluates the transform through its flag-variety fixed-point sum for su(n)
and sl(n,R), checks its structural properties (invariance, the quadratic
eigenvalue identity, split-class vanishing), and validates everything
against independent numeric oracles: Haar Monte Carlo on compact orbits
and damped quadrature on the sl(2,R) hyperboloid.
"""

from .algebra import (
    AlgebraElement,
    AlgebraError,
    AlgebraSpec,
    CartanDatum,
    CartanReduction,
    IndeterminateRegularityError,
    IwasawaDatum,
    WeylElement,
    adjoint_matrix,
    bracket,
    build_algebra,
    coroot,
    element,
    element_from_matrix,
    is_regular_semisimple,
    iwasawa_decomposition,
    killing_form,
    reduce_to_cartan,
    standard_spectrum,
)
from .fixedpoints import (
    FixedPoint,
    MultiplicityAssignment,
    assign_multiplicities,
    closed_orbit_support,
    enumerate_fixed_points,
    is_regular_covector,
    split_positive_system,
)
from .localize import (
    CasimirCheck,
    DegenerateInputError,
    EvalResult,
    InvarianceReport,
    OrbitSpec,
    TermBreakdown,
    casimir_check,
    fourier_grid,
    fourier_value,
    invariance_checks,
    make_orbit,
    random_group_element,
    standard_cartan,
)
from .oracle import (
    CalibrationError,
    CalibrationResult,
    DampedIntegralResult,
    McEstimate,
    OrbitSamples,
    calibrate,
    damped_oscillatory_integral,
    haar_orbit_sample,
    mc_fourier_integral,
    orbit_exponents,
    richardson_extrapolate,
    split_orbit_carrier,
    split_orbit_liouville_density,
)

__version__ = "0.1.0"
