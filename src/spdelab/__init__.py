"""spdelab: numerical laboratory for a 1-D semilinear SPDE driven by
space-time white noise.

Simulate the mild-form dynamics, solve the controlled and skeleton equations,
evaluate and minimize the quadratic action functional on controls, and probe
the small-noise exponential scaling of rare-event probabilities with
Girsanov-tilted Monte Carlo.
"""

__version__ = "0.1.0"

from .action import ActionOptions, RateResult, gradient_check, minimize_action, path_rate_function
from .coeffs import (
    CoefficientSet,
    Cutoff,
    chi_R,
    make_coefficients,
    truncate_coefficients,
    validate_assumptions,
)
from .control import (
    Control,
    control_from_function,
    girsanov_log_weight,
    make_control,
    rate_functional,
    solve_controlled,
    solve_skeleton,
    zero_control,
)
from .greenfn import (
    KernelBoundReport,
    apply_divergence_smoothing,
    apply_semigroup,
    green_image,
    green_spectral,
    green_value,
    verify_kernel_bounds,
)
from .lattice import (
    Field,
    GridSpec,
    eigenfunction,
    field_from_function,
    inverse_sine_transform,
    lp_norm,
    make_field,
    make_grid,
    sine_transform,
)
from .mild_solver import (
    BlowUpError,
    MomentEstimate,
    PathSolution,
    PicardError,
    SolverConfig,
    estimate_moments,
    picard_solve,
    solve_spde,
    step_mild,
)
from .noise import (
    NoiseRealization,
    SeedDerivation,
    derive_generator,
    partial_sum_identity,
    sample_sheet_expansion,
    sample_white_increments,
)
from .experiments import (
    EventSpec,
    ExperimentConfig,
    ISResult,
    ScalingTable,
    run_convergence_studies,
    run_eps_scaling,
    run_experiment,
    run_importance_sampling,
)
