"""Application objectives: quadratics, blind deconvolution, parallel MRI,
neural-network classification, and the unbounded-subgradient counterexample."""

from .quadratic import LeastSquares, QuadraticObjective, random_psd_quadratic
from .counterexample import counterexample_run
from .deconv import (
    BlindDeconvObjective,
    BlindDeconvProblem,
    discrepancy_eta,
    make_synthetic_deconv,
)
from .mri import (
    ParallelMriObjective,
    ParallelMriProblem,
    make_mask,
    make_synthetic_mri,
)
from .classify import (
    ClassifierObjective,
    init_weights,
    nn_forward,
    synthetic_digits,
)
from .pgm import read_pgm, write_pgm
from .mnist import (
    load_digit_set,
    read_idx_images,
    read_idx_labels,
    write_idx_images,
    write_idx_labels,
)

__all__ = [
    "LeastSquares", "QuadraticObjective", "random_psd_quadratic",
    "counterexample_run",
    "BlindDeconvObjective", "BlindDeconvProblem",
    "discrepancy_eta", "make_synthetic_deconv",
    "ParallelMriObjective", "ParallelMriProblem", "make_mask",
    "make_synthetic_mri",
    "ClassifierObjective", "init_weights",
    "nn_forward", "synthetic_digits",
    "read_pgm", "write_pgm",
    "load_digit_set", "read_idx_images", "read_idx_labels",
    "write_idx_images", "write_idx_labels",
]
