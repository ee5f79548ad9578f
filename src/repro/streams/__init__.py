"""Uncertain stream engine substrate.

A push-based, tuple-at-a-time stream processor over uncertain tuples:
tuples carry a membership probability (tuple uncertainty) and
distribution-valued attributes (attribute uncertainty), per §II-A.
"""

from repro.streams.tuples import AttributeSpec, Schema, UncertainTuple
from repro.streams.columnar import ColumnarBatch, as_columnar
from repro.streams.stream import iter_source, replay_source
from repro.streams.windows import CountWindow, TimeWindow, TumblingWindow
from repro.streams.rolling import (
    DEFAULT_RESUM_INTERVAL,
    CompensatedSum,
    MinSizeTracker,
    RollingWindowStats,
    SlidingExtremum,
)
from repro.streams.operators import (
    ANY_PARTITION,
    Operator,
    Select,
    Project,
    Derive,
    ProbabilisticFilter,
    SignificanceFilter,
    WindowAggregate,
    TimeWindowAggregate,
    RollingLearnOperator,
    CollectSink,
    CountingSink,
)
from repro.streams.join import TagSide, WindowJoin
from repro.streams.groupby import GroupedAggregate
from repro.streams.engine import Pipeline
from repro.streams.throughput import ThroughputMeter, measure_throughput

__all__ = [
    "AttributeSpec",
    "Schema",
    "UncertainTuple",
    "ColumnarBatch",
    "as_columnar",
    "iter_source",
    "replay_source",
    "CountWindow",
    "TimeWindow",
    "TumblingWindow",
    "DEFAULT_RESUM_INTERVAL",
    "CompensatedSum",
    "MinSizeTracker",
    "RollingWindowStats",
    "SlidingExtremum",
    "ANY_PARTITION",
    "Operator",
    "Select",
    "Project",
    "Derive",
    "ProbabilisticFilter",
    "SignificanceFilter",
    "WindowAggregate",
    "TimeWindowAggregate",
    "RollingLearnOperator",
    "CollectSink",
    "CountingSink",
    "TagSide",
    "WindowJoin",
    "GroupedAggregate",
    "Pipeline",
    "ThroughputMeter",
    "measure_throughput",
]
