"""Bound states of a quantum particle around a screw dislocation.

Series quantisation of the radial problem (with an Aharonov-Bohm flux
line, frame rotation, and either a harmonic trap or a bare inverse-square
potential), closed-form audits, and an independent finite-difference
oracle.  See the README for the command-line interface.
"""

from .operators import Probe, gaussian_probe, radial_lhs, transformed_lhs
from .oracle import (
    GridMode,
    GridSpec,
    OracleAccuracyError,
    OracleResult,
    flat_exact_spectrum,
    oracle_csv,
    oracle_eigenvalues,
)
from .params import (
    DerivedParams,
    InvalidParameterError,
    Model,
    PhysicalParams,
    derive_params,
    spectral_to_energy,
)
from .series import (
    ConvergenceWarning,
    SeriesOverflowError,
    SeriesSolution,
    eval_psi_x_derivatives,
    series_coefficients,
    series_residual,
)
from .spectrum import (
    Branch,
    EnergyLevel,
    LambdaPolynomialTable,
    NegativeDiscriminantError,
    TruncationError,
    ground_state_closed_form,
    ground_state_wavefunction,
    lambda_polynomials,
    level_series,
    levels_to_csv,
    levels_to_json,
    truncation_solve,
)
from .sweep import SweepRow, SweepSpec, rows_to_csv, rows_to_json, sweep_rows, sweep_values
from .verify import DEFAULT_SEED, CheckResult, VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "Model",
    "PhysicalParams",
    "DerivedParams",
    "InvalidParameterError",
    "derive_params",
    "spectral_to_energy",
    "Probe",
    "gaussian_probe",
    "radial_lhs",
    "transformed_lhs",
    "SeriesSolution",
    "SeriesOverflowError",
    "ConvergenceWarning",
    "series_coefficients",
    "eval_psi_x_derivatives",
    "series_residual",
    "Branch",
    "EnergyLevel",
    "LambdaPolynomialTable",
    "NegativeDiscriminantError",
    "TruncationError",
    "lambda_polynomials",
    "truncation_solve",
    "ground_state_closed_form",
    "ground_state_wavefunction",
    "level_series",
    "levels_to_json",
    "levels_to_csv",
    "GridMode",
    "GridSpec",
    "OracleResult",
    "OracleAccuracyError",
    "oracle_eigenvalues",
    "flat_exact_spectrum",
    "oracle_csv",
    "SweepSpec",
    "SweepRow",
    "sweep_values",
    "sweep_rows",
    "rows_to_csv",
    "rows_to_json",
    "DEFAULT_SEED",
    "CheckResult",
    "VerifyReport",
    "run_verification",
    "__version__",
]
