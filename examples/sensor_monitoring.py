"""Sensor-network monitoring with a sliding-window stream pipeline.

The §V-C workload as an application: each arriving item carries 20 raw
sensor readings; the pipeline learns a Gaussian per item, maintains a
count-based sliding-window AVG, attaches accuracy information to every
window result, and raises alerts through a significance filter whose
false-alarm rate is bounded.

Run:  python examples/sensor_monitoring.py
"""

import numpy as np

from repro import (
    CollectSink,
    Derive,
    FieldStats,
    GaussianLearner,
    MTest,
    Observer,
    Pipeline,
    SignificanceFilter,
    UncertainTuple,
    WindowAggregate,
    distribution_accuracy,
)

WINDOW = 50
ALERT_THRESHOLD = 75.0  # degrees


def make_sensor_stream(n_items: int, seed: int) -> list[UncertainTuple]:
    """Temperature items; a heat event raises the mean mid-stream."""
    rng = np.random.default_rng(seed)
    tuples = []
    for i in range(n_items):
        base = 70.0 if i < n_items // 2 else 78.0  # heat event at midpoint
        readings = rng.normal(base, 4.0, 20)
        tuples.append(UncertainTuple({"item": float(i), "raw": readings}))
    return tuples


def main() -> None:
    tuples = make_sensor_stream(400, seed=9)
    learner = GaussianLearner()

    def learn(tup: UncertainTuple):
        return learner.learn(tup.value("raw")).as_dfsized()

    def attach_accuracy(tup: UncertainTuple):
        field = tup.dfsized("avg")
        return distribution_accuracy(
            field.distribution, field.sample_size, confidence=0.9
        )

    def alert_predicate(tup: UncertainTuple) -> MTest:
        field = FieldStats.from_dfsized(tup.dfsized("avg"))
        return MTest(field, ">", ALERT_THRESHOLD, 0.05)

    observer = Observer()
    pipeline = Pipeline(
        [
            Derive("temperature", learn),   # QP: learn from raw readings
            WindowAggregate("temperature", WINDOW),
            Derive("accuracy", attach_accuracy),
            SignificanceFilter(             # controlled-error alerting
                alert_predicate, alpha1=0.05, alpha2=0.05
            ),
            CollectSink(),
        ],
        observer=observer,
    )
    sink = pipeline.run(tuples)
    decisions = {
        name.rsplit(".", 1)[-1]: observer.metrics.get(name).value
        for name in observer.metrics.names()
        if ".SignificanceFilter.decisions." in name
    }

    print(f"stream items: {len(tuples)}, window: {WINDOW}")
    print(f"alert condition: window AVG > {ALERT_THRESHOLD} deg "
          f"(coupled mTest, alpha1 = alpha2 = 5%)")
    print(f"decisions: {decisions}")
    print(f"alerts raised: {len(sink.results)}")

    if sink.results:
        first = sink.results[0]
        item = first.value("item")
        info = first.value("accuracy")
        print(f"\nfirst alert at item {item:.0f}")
        print(f"  window AVG 90% mean CI: {info.mean}")
        print(f"  (the heat event started at item {len(tuples) // 2})")


if __name__ == "__main__":
    main()
