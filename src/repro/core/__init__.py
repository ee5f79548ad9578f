"""The paper's primary contribution: accuracy-aware machinery.

* :mod:`repro.core.accuracy` — confidence-interval value types (§II-B).
* :mod:`repro.core.analytic` — Lemmas 1 & 2 and Theorem 1 (§II).
* :mod:`repro.core.dfsample` — de facto sample algebra (Def. 2, Lemmas 3/4).
* :mod:`repro.core.bootstrap` — BOOTSTRAP-ACCURACY-INFO (§III).
* :mod:`repro.core.predicates` — mTest / mdTest / pTest (§IV-B).
* :mod:`repro.core.coupled` — COUPLED-TESTS and three-valued logic (§IV-C).
* :mod:`repro.core.power` — power functions of the tests.
* :mod:`repro.core.aggregate` — possible-world COUNT/SUM/AVG moments.
* :mod:`repro.core.effective` — weighted-sample extension (§VII future work).
"""

from repro.core.accuracy import (
    ConfidenceInterval,
    BinInterval,
    AccuracyInfo,
    TupleProbabilityInterval,
)
from repro.core.analytic import (
    bin_height_interval,
    bin_height_intervals,
    proportion_interval_wald,
    proportion_interval_wilson,
    proportion_intervals_wald,
    proportion_intervals_wilson,
    histogram_accuracy,
    histograms_accuracy,
    mean_interval,
    mean_intervals,
    variance_interval,
    variance_intervals,
    distribution_accuracy,
    accuracy_from_moments,
    tuple_probability_interval,
    tuple_probability_intervals,
    accuracy_from_sample,
    accuracy_from_stats,
)
from repro.core.dfsample import (
    df_sample_size,
    df_sample_count,
    DfSized,
)
from repro.core.bootstrap import (
    bootstrap_accuracy_info,
    bootstrap_accuracy_batch,
    percentile_interval,
    percentile_intervals,
    classical_bootstrap_accuracy,
)
from repro.core.adaptive import (
    IncrementalBootstrap,
    adaptive_bootstrap_accuracy_info,
    adaptive_bootstrap_from_values,
    resample_schedule,
    width_calibration,
)
from repro.core.predicates import (
    FieldStats,
    TestResult,
    m_test,
    md_test,
    p_test,
    v_test,
    SignificancePredicate,
    MTest,
    MdTest,
    PTest,
    VTest,
)
from repro.core.coupled import ThreeValued, coupled_tests, CoupledPredicate
from repro.core.power import (
    m_test_power,
    p_test_power,
    coupled_m_test_power,
    coupled_p_test_power,
)
from repro.core.effective import effective_sample_size, exponential_weights

__all__ = [
    "ConfidenceInterval",
    "BinInterval",
    "AccuracyInfo",
    "TupleProbabilityInterval",
    "bin_height_interval",
    "bin_height_intervals",
    "proportion_interval_wald",
    "proportion_interval_wilson",
    "proportion_intervals_wald",
    "proportion_intervals_wilson",
    "histogram_accuracy",
    "histograms_accuracy",
    "mean_interval",
    "mean_intervals",
    "variance_interval",
    "variance_intervals",
    "distribution_accuracy",
    "accuracy_from_moments",
    "tuple_probability_interval",
    "tuple_probability_intervals",
    "accuracy_from_sample",
    "accuracy_from_stats",
    "df_sample_size",
    "df_sample_count",
    "DfSized",
    "bootstrap_accuracy_info",
    "bootstrap_accuracy_batch",
    "adaptive_bootstrap_accuracy_info",
    "adaptive_bootstrap_from_values",
    "IncrementalBootstrap",
    "resample_schedule",
    "width_calibration",
    "percentile_interval",
    "percentile_intervals",
    "classical_bootstrap_accuracy",
    "FieldStats",
    "TestResult",
    "m_test",
    "md_test",
    "p_test",
    "v_test",
    "SignificancePredicate",
    "MTest",
    "MdTest",
    "PTest",
    "VTest",
    "ThreeValued",
    "coupled_tests",
    "CoupledPredicate",
    "m_test_power",
    "p_test_power",
    "coupled_m_test_power",
    "coupled_p_test_power",
    "effective_sample_size",
    "exponential_weights",
]
