"""Sliced Latin hypercube designs with arbitrary, unequal slice sizes.

The construction partitions the n whole-grid levels into groups matching
the requested slice sizes so that every slice is itself a Latin hypercube
at its own resolution. An optional iterative sweep reduces pairwise column
correlations while preserving both levels of stratification.
"""

from .core import (
    Design,
    LevelPartition,
    RngStream,
    SliceSizes,
    level_midpoints,
    levels_from_values,
)
from .partition import DeltaSequence, LevelStep, assignment_steps, delta_sequence, partition_levels
from .generate import (
    generate_independent_lhds,
    generate_randomized_lhd,
    generate_sliced_lhd,
)
from .decorrelate import (
    SweepTrace,
    reduce_correlations,
    residualize,
    rms_correlation,
)
from .validate import ValidationReport, validate_sliced
from .benchmark import (
    ExperimentConfig,
    RmseReport,
    eval_f1,
    eval_f2,
    render_table,
    run_experiment,
    true_mean_f1,
    true_mean_f2,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Design",
    "DeltaSequence",
    "ExperimentConfig",
    "LevelPartition",
    "LevelStep",
    "RmseReport",
    "RngStream",
    "SliceSizes",
    "SweepTrace",
    "ValidationReport",
    "assignment_steps",
    "delta_sequence",
    "eval_f1",
    "eval_f2",
    "generate_independent_lhds",
    "generate_randomized_lhd",
    "generate_sliced_lhd",
    "level_midpoints",
    "levels_from_values",
    "partition_levels",
    "reduce_correlations",
    "render_table",
    "residualize",
    "rms_correlation",
    "run_experiment",
    "true_mean_f1",
    "true_mean_f2",
    "validate_sliced",
    "write_trace_csv",
    "__version__",
]
