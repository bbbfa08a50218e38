"""Linearised Bregman iteration for smooth non-convex energies with non-smooth
convex Bregman functions, plus projected/proximal-gradient baselines,
convergence monitors, application drivers and an experiment CLI."""

__version__ = "0.1.0"

from .exceptions import (
    ConfigError,
    NotConvergedError,
    NumericsError,
    StagnationError,
    UnsupportedOperation,
)
from .tensor_ops import (
    as_tensor,
    conv2d_periodic,
    conv2d_periodic_adjoint,
    dct2,
    dft2,
    div2d,
    grad2d_forward,
    idct2,
    idft2,
    kernel_gradient,
    svd_thin,
    total_variation,
)
from .regularizers import (
    L1,
    BregmanFunction,
    NonnegativeIndicator,
    NuclearNorm,
    SeparableSum,
    SimplexIndicator,
    SquaredL2,
    TotalVariation2D,
    WeightedL1Dct,
    Zero,
    bregman_distance,
    fenchel_residual,
    project_simplex,
    prox_l1,
    prox_nuclear,
    prox_tv,
    prox_weighted_l1_dct,
    symmetric_bregman_distance,
)
from .pdhg import PdhgConfig, PdhgResult, pdhg_tv_prox
from .solver import (
    BacktrackingPolicy,
    MonitorRecord,
    RunResult,
    SmoothObjective,
    SolverState,
    StoppingRule,
    backtrack,
    check_sufficient_decrease,
    initial_state,
    linbreg_step,
    run,
    surrogate_subgradient,
    surrogate_value,
)
from .verify import (
    FdCheckReport,
    finite_difference_gradient_check,
    prox_oracle_check,
    tv_prox_dual_oracle,
)

__all__ = [
    "__version__",
    "ConfigError", "NotConvergedError", "NumericsError", "StagnationError",
    "UnsupportedOperation",
    "as_tensor", "conv2d_periodic", "conv2d_periodic_adjoint", "dct2", "dft2",
    "div2d", "grad2d_forward", "idct2", "idft2", "kernel_gradient", "svd_thin",
    "total_variation",
    "L1", "BregmanFunction", "NonnegativeIndicator", "NuclearNorm",
    "SeparableSum", "SimplexIndicator", "SquaredL2", "TotalVariation2D",
    "WeightedL1Dct", "Zero", "bregman_distance",
    "fenchel_residual", "project_simplex", "prox_l1", "prox_nuclear", "prox_tv",
    "prox_weighted_l1_dct", "symmetric_bregman_distance",
    "PdhgConfig", "PdhgResult", "pdhg_tv_prox",
    "BacktrackingPolicy", "MonitorRecord", "RunResult", "SmoothObjective",
    "SolverState", "StoppingRule", "backtrack", "check_sufficient_decrease",
    "initial_state", "linbreg_step", "run", "surrogate_subgradient",
    "surrogate_value",
    "FdCheckReport", "finite_difference_gradient_check", "prox_oracle_check",
    "tv_prox_dual_oracle",
]
