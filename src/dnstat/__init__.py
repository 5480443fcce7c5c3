"""Deferred weighted-window summability means and statistical-convergence tools.

The package provides the window-mean transform and its weighted density
of index sets, detectors for statistical convergence of random-variable
sequences in probability, r-th mean and distribution, and a Korovkin
three-condition checker for positive linear operator sequences on
C[0,1], including the Meyer-Konig-Zeller operator and lifted variants.
"""

from .density import (
    ConvergenceVerdict,
    DensityConfig,
    TracePoint,
    Verdict,
    density_limit,
    dn_stat_limit,
    level_density_limit,
    level_density_limits,
    trace_csv,
    window_means,
)
from .detectors import (
    AlgebraSuiteReport,
    AssertionResult,
    DetectorConfig,
    MarkovCheck,
    algebra_suite,
    cauchy_index_search,
    continuous_map_check,
    default_grid,
    markov_bound_check,
    st_dndc,
    st_dnm,
    st_dnp,
)
from .korovkin import (
    KorovkinConfig,
    KorovkinReport,
    MomentFormAudit,
    OperatorSequence,
    Perturbation,
    SampledFunction,
    SeriesCapError,
    audit_quadratic_moment,
    korovkin_check,
    lifted_operator,
    mkz_apply,
    sup_distance,
)
from .rvmodel import (
    LIMIT,
    MODEL_ZOO,
    EmpiricalEstimate,
    ModelBundle,
    ModelError,
    RVSequenceModel,
    SampleBatch,
    abs_moment,
    cdf,
    combine_independent,
    exceedance_prob,
    map_values,
    model_preset,
    prob_limits_equal,
    sample,
    support_model,
    with_alt_limit,
)
from .schedules import (
    Affine,
    DeferredSchedule,
    DegenerateNormalizerError,
    NormalizerMode,
    ScheduleError,
    WeightError,
    WeightScheme,
    WeightSeq,
    schedule_preset,
    weight_preset,
)

__version__ = "0.1.0"
