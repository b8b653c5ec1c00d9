"""Distributed false-discovery-rate control over star networks.

A numpy/scipy library covering the BH procedure family, null-proportion
estimation, one-shot proportion-matching calibration, round-based greedy
interval aggregation with exact bit accounting, asymptotically optimal
rejection regions, and a Monte Carlo experiment harness.
"""

from .distmodel import (
    CAUCHY,
    GAUSSIAN,
    AlternativeModel,
    DependenceSpec,
    LabeledSample,
    NetworkModel,
    NodeModel,
    alt_cdf,
    alt_pdf,
    cauchy_alt,
    gaussian_alt,
    mixture_cdf,
    normal_tail,
    normal_tail_inv,
    sample_trial,
)
from .estimators import (
    DegenerateSpacingError,
    NullProportionEstimate,
    default_spacing_schedule,
    oracle_estimate,
    spacing_estimate,
    storey_estimate,
)
from .experiments import (
    CSV_HEADER,
    METHODS,
    ExperimentConfig,
    ResultRow,
    builtin_config,
    run_experiment,
    write_csv,
)
from .greedy import (
    CellDensity,
    IntervalGrid,
    IntervalSelection,
    build_grid,
    default_epsilon,
    greedy_select,
    oracle_interval_set,
    selection_asymptotics,
    selection_regions,
    true_cell_densities,
)
from .netsim import (
    Message,
    ProtocolResult,
    Transcript,
    batch_equivalent_selection,
    make_estimator,
    replay_greedy_transcript,
    run_greedy_aggregation,
    run_no_comm,
    run_pooled_bh,
    run_proportion_matching,
)
from .oracleopt import (
    alt_heterogeneity_bounds,
    c_alpha_search,
    fdr_bound_null_heterogeneity,
    heterogeneity_delta,
    level_region,
    measure_alt_heterogeneity,
    optimal_region,
    pooled_alt_cdf,
)
from .procedures import (
    ConfusionMetrics,
    RejectionOutcome,
    adaptive_bh,
    asymptotic_threshold,
    beta_slope,
    bh_procedure,
    confusion_metrics,
    estimate_levels,
    local_alpha,
)

__version__ = "0.1.0"
