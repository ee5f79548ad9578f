"""repro — an accuracy-aware uncertain stream database.

A from-scratch reproduction of *"Accuracy-Aware Uncertain Stream
Databases"* (Tingjian Ge and Fujun Liu, ICDE 2012): an uncertain stream
database in which every learned probability distribution carries
confidence-interval accuracy information, query results inherit that
accuracy through de facto sample sizes, and decision making uses
hypothesis-test *significance predicates* with coupled error-rate control.

Quickstart::

    import numpy as np
    from repro import (
        HistogramLearner, UncertainTuple, run_query, ExecutorConfig,
    )

    rng = np.random.default_rng(0)
    learner = HistogramLearner(bucket_count=8)
    delays = learner.learn(rng.normal(60, 15, 50))
    tup = UncertainTuple({"road_id": 20, "delay": delays.as_dfsized()})
    results = run_query(
        "SELECT road_id, delay FROM t WHERE delay > 50 PROB 0.5",
        [tup], config=ExecutorConfig(confidence=0.9),
    )
    print(results[0].describe())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure.
"""

from repro.errors import (
    ReproError,
    DistributionError,
    LearningError,
    AccuracyError,
    QueryError,
    ParseError,
    StreamError,
    SchemaError,
    CallbackError,
    ParallelError,
)
from repro.distributions import (
    Distribution,
    Deterministic,
    HistogramDistribution,
    GaussianDistribution,
    EmpiricalDistribution,
    DiscreteDistribution,
    UniformDistribution,
    ExponentialDistribution,
    GammaDistribution,
    WeibullDistribution,
    MixtureDistribution,
)
from repro.core import (
    ConfidenceInterval,
    BinInterval,
    AccuracyInfo,
    TupleProbabilityInterval,
    bin_height_interval,
    bin_height_intervals,
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
    df_sample_size,
    df_sample_count,
    DfSized,
    bootstrap_accuracy_info,
    bootstrap_accuracy_batch,
    adaptive_bootstrap_accuracy_info,
    adaptive_bootstrap_from_values,
    IncrementalBootstrap,
    resample_schedule,
    width_calibration,
    classical_bootstrap_accuracy,
    FieldStats,
    TestResult,
    m_test,
    md_test,
    p_test,
    v_test,
    MTest,
    MdTest,
    PTest,
    VTest,
    ThreeValued,
    coupled_tests,
    CoupledPredicate,
    m_test_power,
    p_test_power,
    effective_sample_size,
)
from repro.learning import (
    Learner,
    LearnedDistribution,
    HistogramLearner,
    GaussianLearner,
    EmpiricalLearner,
    KdeLearner,
    WeightedLearner,
)
from repro.streams import (
    AttributeSpec,
    Schema,
    UncertainTuple,
    Pipeline,
    CountWindow,
    Select,
    Project,
    Derive,
    ProbabilisticFilter,
    SignificanceFilter,
    SlidingGaussianAverage,
    WindowAggregate,
    RollingLearnOperator,
    RollingWindowStats,
    CollectSink,
    CountingSink,
    measure_throughput,
)
from repro.query import (
    parse_query,
    compile_query,
    QueryExecutor,
    ExecutorConfig,
    ResultTuple,
)
from repro.streams.join import TagSide, WindowJoin
from repro.streams.groupby import GroupedAggregate
from repro.query.executor import run_query
from repro.db import StreamDatabase, ContinuousQuery
from repro.persist import save_database, load_database
from repro.obs import (
    Counter,
    Gauge,
    Timer,
    Histogram,
    MetricsRegistry,
    operator_rows,
)
from repro.parallel import WorkerPool, available_cpus

__version__ = "1.0.0"

__all__ = [
    "ReproError", "DistributionError", "LearningError", "AccuracyError",
    "QueryError", "ParseError", "StreamError", "SchemaError",
    "CallbackError", "ParallelError",
    "Distribution", "Deterministic", "HistogramDistribution",
    "GaussianDistribution", "EmpiricalDistribution", "DiscreteDistribution",
    "UniformDistribution", "ExponentialDistribution", "GammaDistribution",
    "WeibullDistribution", "MixtureDistribution",
    "ConfidenceInterval", "BinInterval", "AccuracyInfo",
    "TupleProbabilityInterval", "bin_height_interval", "bin_height_intervals",
    "histogram_accuracy", "histograms_accuracy",
    "mean_interval", "mean_intervals", "variance_interval",
    "variance_intervals", "distribution_accuracy", "accuracy_from_moments",
    "tuple_probability_interval", "tuple_probability_intervals",
    "accuracy_from_sample", "accuracy_from_stats", "df_sample_size",
    "df_sample_count", "DfSized", "bootstrap_accuracy_info",
    "bootstrap_accuracy_batch",
    "adaptive_bootstrap_accuracy_info",
    "adaptive_bootstrap_from_values",
    "IncrementalBootstrap",
    "resample_schedule",
    "width_calibration",
    "classical_bootstrap_accuracy", "FieldStats", "TestResult", "m_test",
    "md_test", "p_test", "v_test", "MTest", "MdTest", "PTest", "VTest",
    "ThreeValued",
    "coupled_tests", "CoupledPredicate", "m_test_power", "p_test_power",
    "effective_sample_size",
    "Learner", "LearnedDistribution", "HistogramLearner", "GaussianLearner",
    "EmpiricalLearner", "KdeLearner", "WeightedLearner",
    "AttributeSpec", "Schema", "UncertainTuple", "Pipeline", "CountWindow",
    "Select", "Project", "Derive", "ProbabilisticFilter",
    "SignificanceFilter", "SlidingGaussianAverage", "WindowAggregate",
    "RollingLearnOperator", "RollingWindowStats",
    "CollectSink", "CountingSink", "measure_throughput",
    "parse_query", "compile_query", "QueryExecutor", "ExecutorConfig",
    "ResultTuple", "run_query",
    "TagSide", "WindowJoin", "GroupedAggregate",
    "StreamDatabase", "ContinuousQuery",
    "save_database", "load_database",
    "Counter", "Gauge", "Timer", "Histogram", "MetricsRegistry",
    "operator_rows",
    "WorkerPool", "available_cpus",
]
