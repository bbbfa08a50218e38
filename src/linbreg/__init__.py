"""Linearised Bregman iteration for smooth non-convex energies with non-smooth
convex Bregman functions, plus projected/proximal-gradient baselines,
convergence monitors, application drivers and an experiment CLI.

The top-level names are the library API; helpers are imported from their
modules (``linbreg.tensor_ops``, ``linbreg.regularizers``, ``linbreg.pdhg``,
``linbreg.solver``, ``linbreg.verify``)."""

__version__ = "0.1.0"

from .exceptions import (
    ConfigError,
    NotConvergedError,
    NumericsError,
    StagnationError,
    UnsupportedOperation,
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
)
from .pdhg import PdhgConfig
from .solver import (
    BacktrackingPolicy,
    MonitorRecord,
    RunResult,
    SmoothObjective,
    SolverState,
    StoppingRule,
    initial_state,
    linbreg_step,
    run,
)

__all__ = [
    "__version__",
    "ConfigError", "NotConvergedError", "NumericsError", "StagnationError",
    "UnsupportedOperation",
    "L1", "BregmanFunction", "NonnegativeIndicator", "NuclearNorm",
    "SeparableSum", "SimplexIndicator", "SquaredL2", "TotalVariation2D",
    "WeightedL1Dct", "Zero",
    "PdhgConfig",
    "BacktrackingPolicy", "MonitorRecord", "RunResult", "SmoothObjective",
    "SolverState", "StoppingRule", "initial_state", "linbreg_step", "run",
]
