"""Desk-scale laboratory for semiclassical spectral-shift asymptotics of
matrix Schrodinger operators: hypothesis checkers, closed-form leading
coefficients, a periodic Fourier-spectral Weyl engine, shift-function
estimators, and an experiment harness."""

from .bumps import Bump1D, ProductCutoff, ScalarPhaseFunction, dilation_generator
from .coefficients import (
    CoefficientProfile,
    TestFunction,
    a0,
    bump_test_function,
    c0,
    coefficient_profile,
    gamma0,
    gamma0_localized,
    plateau_test_function,
    raised_cosine_test_function,
)
from .harness import ExperimentConfig, reference_potential, run
from .microhyperbolicity import (
    EscapeCertificate,
    MicrohyperbolicityCertificate,
    boundary_value_extrapolate,
    check_on_energy_shell,
    escape_check_dilation,
    escape_check_general,
)
from .quantization import (
    Grid1D,
    GridOperator,
    SweepReport,
    WindowTheta,
    build_schrodinger,
    fourier_window,
    smoothed_trace,
    theorem1_check,
    theorem2_check,
    theorem3_check,
    weyl_quantize,
)
from .ssf import (
    SpectralPair,
    build_pair,
    derivative_check,
    mollified_density_pairing,
    ssf_mollified,
    weak_check,
    weak_pairing,
    weyl_check,
)
from .symbols import (
    MatrixPotential,
    MatrixSymbol,
    model_potential,
    schrodinger_symbol,
)

__version__ = "0.1.0"
