"""Decentralized LQG control and estimation for influence-coupled teams."""

from .errors import (
    InfluenceError,
    NonFiniteCostError,
    RiccatiError,
    SingularInnovationError,
)
from .model import (
    Dimensions,
    TeamModel,
    ValidationReport,
    from_json_dict,
    load_model,
    make_model,
    normalize_influence,
    resize_team,
    save_model,
    to_json_dict,
    validate,
)
from .riccati import RiccatiPass, solve_riccati
from .filters import (
    FilterSchedule,
    precompute_filters,
    precompute_global,
    precompute_local,
    predict_estimates,
    prior_estimates,
    team_error_covariance,
    update_estimates,
)
from .strategy import (
    CustomLinear,
    MeanField,
    Optimal,
    ZeroAction,
    meanfield_trajectory,
    optimal_coefficients,
    parse_strategy,
)
from .oracle import (
    brute_force_optimize,
    centralized_filter,
    exact_cost,
)
from .sim import (
    benchmark_convergence_model,
    convergence_experiment,
    paired_cost_gap,
    rollout,
    run_rollouts,
)

__version__ = "0.1.0"
