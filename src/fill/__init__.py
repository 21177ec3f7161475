"""Local-likelihood label imputation for mixed-feature cohorts.

Classify an unlabeled record as positive only when its distance
neighborhood holds significantly more positives than the cohort base
rate, with leave-one-out tuning, neighborhood explanations, and a
logistic baseline for comparison.
"""

from .baseline import (
    LogisticModel,
    c_statistic,
    evaluate_baseline,
    evaluate_two_cutoffs,
    fit_logistic,
    optimal_cutoff,
    predict_scores,
)
from .classify import (
    ClassificationResult,
    Decision,
    FillModel,
    Hyperparameters,
    base_rate,
    impute_unknowns,
)
from .cohort import (
    Cohort,
    FeatureSchema,
    Label,
    aggregate_ef,
    load_cohort,
    prevalence_filter,
    select_features,
    write_cohort,
)
from .distance import (
    DistanceMatrix,
    Metric,
    distance_matrix,
    gower,
    jaccard,
    manhattan,
)
from .explain import (
    FeatureComparison,
    FeatureKind,
    NeighborhoodExplanation,
    explain_record,
    top_features,
)
from .stats import TestResult, bh_fdr, binom_sf, binom_tail, fisher_exact, welch_t
from .synth import SynthSpec, default_spec, synth_cohort, synth_cohort_with_truth
from .tune import (
    CriterionA,
    CriterionB,
    FrontierPoint,
    GridCell,
    GridSearchReport,
    LooMetrics,
    default_radius_grid,
    default_threshold_grid,
    grid_search,
    loo_evaluate,
    precision_yield_frontier,
)

__version__ = "0.1.0"
