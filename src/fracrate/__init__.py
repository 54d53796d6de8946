"""fracrate: fractional-calculus operators, slow-fast SDE simulation and
large-deviations rate functionals for rough-noise multiscale systems."""

__version__ = "0.1.0"

from .cameron_martin import HurstContext, apply_KH, apply_KH_dot, apply_KH_inverse, c_H, hH_norm
from .errors import (
    AdmissibilityError,
    CenteringError,
    DegeneracyError,
    DivergenceError,
    ExperimentFailure,
    FracrateError,
    InvalidInputError,
    RegularityError,
    TruncationError,
    ValidationFailure,
)
from .fbm_gen import path_norms, sample_fbm, sample_increments
from .frac_calc import (
    FracOrder,
    delta_ratio,
    default_young_alpha,
    marchaud_derivative,
    riemann_liouville,
    young_integral,
)
from .gridpath import GridPath
from .ldp_harness import (
    HFunctional,
    MonteCarloPlan,
    estimate_laplace,
    estimate_rare_event,
    linear_case_prediction,
    simulate_point,
)
from .multiscale_sim import (
    BatchPaths,
    ControlPair,
    OccupationHistogram,
    SlowFastSpec,
    default_substeps,
    empirical_occupation,
    simulate_chunks,
)
from .poisson_cell import (
    InvariantMeasure,
    PoissonSolution,
    average_coeff,
    effective_q,
    invariant_density_1d,
    solve_poisson_1d,
)
from .rate_fn import (
    LimitDrift,
    RateEvalResult,
    build_limit_drift,
    eval_rate_explicit,
    eval_rate_fw_half,
    eval_rate_general,
    eval_rate_tilde_half,
    h_limit_study,
    replay_minimizer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
