"""Frequency recovery of exponential sums sampled on integer lattices.

The package estimates the complex frequencies and coefficients of a finite
exponential sum from samples on a lattice domain, including domains that are
not boxes, through shift invariance of the signal subspace.
"""

from .domains import (
    DeletionMasks,
    IndexSet,
    capacity,
    degenerate_fibers,
    deletion_masks,
    erode,
    make_box,
    make_shape,
    minkowski_sum,
)
from .errors import (
    CapacityError,
    CoverageError,
    DecompositionError,
    DegenerateFiberError,
    DomainError,
    GenerationError,
    ModelOrderError,
    NonFiniteError,
    PairingError,
    RankDeficiencyError,
)
from .esprit import (
    EspritOptions,
    EstimationReport,
    GdHankel,
    JointDiagonalization,
    auto_order,
    build_hankel,
    esprit_1d,
    esprit_block,
    esprit_nd,
    joint_eig,
)
from .harness import (
    ExperimentSpec,
    FrequencyMatch,
    ModelRecipe,
    TrialResult,
    bundled_scenarios,
    bundled_spec,
    match_frequencies,
    run_experiment,
    singular_value_table,
)
from .linalg_backend import EigResult, SvdResult, eig_full, lstsq, truncated_svd
from .signal import (
    ExponentialModel,
    MdSequence,
    add_noise,
    eval_model,
    random_model,
    vandermonde,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CoverageError",
    "DecompositionError",
    "DegenerateFiberError",
    "DeletionMasks",
    "DomainError",
    "EigResult",
    "EspritOptions",
    "EstimationReport",
    "ExperimentSpec",
    "ExponentialModel",
    "FrequencyMatch",
    "GdHankel",
    "GenerationError",
    "IndexSet",
    "JointDiagonalization",
    "MdSequence",
    "ModelOrderError",
    "ModelRecipe",
    "NonFiniteError",
    "PairingError",
    "RankDeficiencyError",
    "SvdResult",
    "TrialResult",
    "add_noise",
    "auto_order",
    "build_hankel",
    "bundled_scenarios",
    "bundled_spec",
    "capacity",
    "degenerate_fibers",
    "deletion_masks",
    "eig_full",
    "erode",
    "esprit_1d",
    "esprit_block",
    "esprit_nd",
    "eval_model",
    "joint_eig",
    "lstsq",
    "make_box",
    "make_shape",
    "match_frequencies",
    "minkowski_sum",
    "random_model",
    "run_experiment",
    "singular_value_table",
    "truncated_svd",
    "vandermonde",
]
