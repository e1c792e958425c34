"""Numerical laboratory for a regularized logarithmic-sensitivity
chemotaxis system.

The package couples a finite-volume solver for

    u_t = lap u - chi div((u / v) grad v)
    v_t = lap v - v + u / (1 + eps u)

on a box with zero-flux boundaries to the exponent algebra of the weighted
entropy u^p v^q, discrete weak-form residual checks, and standalone analytic
oracles (power identities, square completion, a Riccati comparison bound,
and empirical Poincare-type constants).
"""

__version__ = "0.1.0"

from .params import (
    ExponentDomainError,
    ExponentSelectionError,
    EntropyCoefficients,
    ModelParams,
    chi_admissible,
    entropy_coefficients,
    exponent_infimum,
    exponent_infimum_bruteforce,
    export_exponent_region,
    q_bounds,
    select_exponents,
)
from .grid import (
    Grid,
    GridError,
    gradient_cell_magnitude,
    read_field_binary,
    write_field_binary,
)
from .simulator import (
    SimState,
    SimulationError,
    SingularityError,
    StepReport,
    Trajectory,
    cfl_dt,
    initial_state,
    run,
    step,
)
from .diagnostics import (
    Accumulator,
    BoundReport,
    DiagnosticsRecord,
    TestFunction,
    apriori_bounds_check,
    builtin_supersolution_family,
    grad_vq_bound,
    log_mass_check,
    trace_positivity_check,
)
from .oracles import (
    EnsembleSpec,
    OdeComparison,
    check_power_identities,
    check_square_completion,
    coth_bound,
    log_poincare_ratio,
    mean_poincare_ratio,
    synth_positive_field,
    verify_ode_comparison_batch,
)
from .cli import (
    ConfigError,
    main,
    run_experiment,
    validate_config,
)

__all__ = [
    "__version__",
    "Accumulator",
    "BoundReport",
    "ConfigError",
    "DiagnosticsRecord",
    "EnsembleSpec",
    "EntropyCoefficients",
    "ExponentDomainError",
    "ExponentSelectionError",
    "Grid",
    "GridError",
    "ModelParams",
    "OdeComparison",
    "SimState",
    "SimulationError",
    "SingularityError",
    "StepReport",
    "TestFunction",
    "Trajectory",
    "apriori_bounds_check",
    "builtin_supersolution_family",
    "cfl_dt",
    "check_power_identities",
    "check_square_completion",
    "chi_admissible",
    "coth_bound",
    "entropy_coefficients",
    "exponent_infimum",
    "exponent_infimum_bruteforce",
    "export_exponent_region",
    "grad_vq_bound",
    "gradient_cell_magnitude",
    "initial_state",
    "log_mass_check",
    "log_poincare_ratio",
    "main",
    "mean_poincare_ratio",
    "q_bounds",
    "read_field_binary",
    "run",
    "run_experiment",
    "select_exponents",
    "step",
    "synth_positive_field",
    "trace_positivity_check",
    "validate_config",
    "verify_ode_comparison_batch",
    "write_field_binary",
]
