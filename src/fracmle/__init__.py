"""Simulation and small-noise maximum-likelihood inference for SDEs driven
by rough fractional Brownian motion (Hurst index between 1/3 and 1/2)."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DivergenceError,
    EllipticityError,
    FracmleError,
    InputError,
    OptimizationError,
    ParameterDomainError,
    ResourceError,
    StandardizationError,
)
from .fbm import (
    HurstVector,
    RoughPath,
    TimeGrid,
    chen_defect,
    lift,
    sample_fbm,
)
from .fraccalc import (
    FracKernelPlan,
    d_H,
    gamma_H,
    get_plan,
    kh_inverse_transform,
    q_transform,
    rl_integral_left,
)
from .model import (
    AssumptionReport,
    ModelSpec,
    ProbeConfig,
    available_models,
    eval_A_inverse,
    eval_diffusion,
    eval_drift,
    get_model,
    probe_assumptions,
    register,
)
from .rde import (
    Trajectory,
    solve_ode,
    solve_rde,
    sup_distance,
)
from .inference import (
    EstimateRecord,
    GammaMatrix,
    LikelihoodContext,
    OptimizerConfig,
    QField,
    build_context,
    build_Y,
    build_Z,
    compute_Q,
    gamma_matrix,
    grad_log_likelihood,
    identifiability_scan,
    likelihood_parts,
    log_likelihood,
    mle,
    verify_transfer_identity,
    y_limit_field,
)
from .mcstudy import (
    EpsSummary,
    ReplicateResult,
    StudyConfig,
    StudySummary,
    run_replicate,
    run_study,
)
