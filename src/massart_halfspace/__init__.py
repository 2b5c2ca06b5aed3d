"""Learning origin-centered halfspaces under bounded instance-dependent
label noise, with Monte-Carlo certification of the structural lemmas that
make smoothed non-convex surrogates work.
"""

__version__ = "0.1.0"

from .distributions import (
    PROFILE_BUILDERS,
    MarginalSampler,
    disk_profile,
    empirical_density_check,
    gaussian_profile,
    logconcave_profile,
    plane_density,
)
from .errors import ConfigError, PsgdDivergenceError, UnderpoweredCheckError
from .geometry import (
    BoundedProfile,
    angle_between,
    error_lower_bound_from_angle,
    error_upper_bound_from_angle,
    sign_of,
)
from .harness import ExperimentConfig, load_config, measure_disagreement, run
from .learner import (
    LearnParams,
    LearnReport,
    Schedule,
    excess_to_target_error,
    learn,
    schedule_for,
    select_hypothesis,
)
from .noise import (
    BOUNDED_NOISE_KINDS,
    NOISE_KINDS,
    Draw,
    MassartOracle,
    NoiseStrategy,
    noise_rates,
)
from .rng import derive_seed, make_rng
from .psgd import (
    PsgdConfig,
    Trajectory,
    psgd_run,
    psgd_run_batch,
    theoretical_iteration_count,
    theoretical_step_size,
)
from .surrogate import (
    PopulationEstimate,
    SurrogateSpec,
    margin,
    per_sample_gradient,
    per_sample_loss,
    population_estimates,
    sample_gradients,
    surrogate_derivative,
    surrogate_value,
)
from .verify import (
    StructuralCheckConfig,
    lemma_gradient_floor,
    lemma_sigma_cap,
    verify_lemma,
    verify_stationary_gap,
)

__all__ = [
    "__version__",
    "BOUNDED_NOISE_KINDS",
    "BoundedProfile",
    "ConfigError",
    "Draw",
    "ExperimentConfig",
    "LearnParams",
    "LearnReport",
    "MarginalSampler",
    "MassartOracle",
    "NOISE_KINDS",
    "NoiseStrategy",
    "PROFILE_BUILDERS",
    "PopulationEstimate",
    "PsgdConfig",
    "PsgdDivergenceError",
    "Schedule",
    "StructuralCheckConfig",
    "SurrogateSpec",
    "Trajectory",
    "UnderpoweredCheckError",
    "angle_between",
    "derive_seed",
    "disk_profile",
    "empirical_density_check",
    "error_lower_bound_from_angle",
    "error_upper_bound_from_angle",
    "excess_to_target_error",
    "gaussian_profile",
    "learn",
    "lemma_gradient_floor",
    "lemma_sigma_cap",
    "load_config",
    "logconcave_profile",
    "make_rng",
    "margin",
    "measure_disagreement",
    "noise_rates",
    "per_sample_gradient",
    "per_sample_loss",
    "plane_density",
    "population_estimates",
    "psgd_run",
    "psgd_run_batch",
    "run",
    "sample_gradients",
    "schedule_for",
    "select_hypothesis",
    "sign_of",
    "surrogate_derivative",
    "surrogate_value",
    "theoretical_iteration_count",
    "theoretical_step_size",
    "verify_lemma",
    "verify_stationary_gap",
]
