"""Minimum and maximum selection against a comparison oracle that may lie
at most k times, with instrumentation to check the comparison-count bounds."""

from .algorithms import (
    GroupReport,
    MinMaxResult,
    find_max_k_lies,
    find_min_k_lies,
    improved_minmax,
    pohl_minmax,
    simple_comparison_bound,
    simple_minmax,
)
from .core import (
    Answer,
    InvalidQuery,
    LieBudgetViolation,
    RunStats,
    TotalOrder,
    Transcript,
    assert_lie_budget,
    count_lies,
)
from .graphs import (
    added_edge_pairs,
    complete_edges,
)
from .harness import (
    ExperimentConfig,
    ExperimentRow,
    measure_thickness,
    rows_to_csv,
    run_experiments,
    verify_exhaustive,
)
from .oracles import (
    RandomLiarOracle,
    ScriptedOracle,
    TriggeredLiarOracle,
    TruthfulOracle,
)
from .sorters import (
    SortInconsistency,
    SortOutcome,
    balanced_quicksort,
    mergesort,
)

__version__ = "0.1.0"
