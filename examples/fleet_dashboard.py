"""A fleet-operations dashboard on the StreamDatabase facade.

End-to-end application combining the pieces:

* raw taxi reports for a city window are ingested and grouped per road
  (the Figure-1 transformation), so every road's delay distribution
  carries its sample size;
* a continuous query watches for roads that are *provably* congested
  (coupled mTest against the free-flow delay) and alerts as reports
  arrive;
* a join correlates road delays with a static road-metadata stream, and
  a grouped aggregate summarises delays per speed-limit class;
* finally the window's learned state is saved to JSON and reloaded — a
  restart does not lose the accuracy-bearing distributions.

Run:  python examples/fleet_dashboard.py
"""

import numpy as np

from repro import (
    CollectSink,
    ExecutorConfig,
    GroupedAggregate,
    Pipeline,
    StreamDatabase,
    TagSide,
    UncertainTuple,
    WindowJoin,
)
from repro.workloads.cartel import CarTelSimulator


def main() -> None:
    sim = CarTelSimulator(n_segments=80, seed=12)
    db = StreamDatabase(config=ExecutorConfig(seed=12, confidence=0.9))
    db.create_stream("roads")

    # --- continuous congestion alerting ---------------------------------
    alerts = []
    db.register_continuous(
        "congestion",
        # "provably congested": with FP and FN rates both <= 5%, the
        # road's expected delay exceeds 120 seconds.
        "SELECT segment_id, delay FROM roads "
        "WHERE mTest(delay, '>', 120, 0.05, 0.05)",
        alerts.append,
    )

    # --- ingest one reporting window -------------------------------------
    reports = [r.as_record() for r in sim.report_stream(window_minutes=10)]
    produced = db.ingest_observations(
        "roads", reports, group_by="segment_id", value="delay",
        carry=("speed_limit",), min_observations=2,
    )
    print(f"ingested {len(reports)} raw reports -> {produced} road tuples")
    print(f"congestion alerts (error-controlled): {len(alerts)}")
    if alerts:
        worst = max(
            alerts, key=lambda r: r.value("delay").distribution.mean()
        )
        info = worst.accuracy["delay"]
        print(
            f"  worst road {worst.value('segment_id').distribution.mean():.0f}: "
            f"mean delay CI {info.mean} from {info.sample_size} reports"
        )

    # --- ad-hoc query over the current window -----------------------------
    risky = db.query(
        "SELECT segment_id FROM roads WHERE delay > 100 PROB 0.5"
    )
    print(f"roads with P[delay > 100s] >= 0.5: {len(risky)}")

    # --- join delays with static metadata ---------------------------------
    metadata = [
        UncertainTuple(
            {
                "road_id": float(sid),
                "length_m": sim.spec(sid).length_m,
            }
        )
        for sid in sim.segment_ids()
    ]
    delay_tuples = db.query("SELECT segment_id, delay FROM roads")
    join = WindowJoin("road_id", window_size=200)
    join_sink = CollectSink()
    Pipeline([join, join_sink])  # wires join -> join_sink
    left_tag, right_tag = TagSide("left"), TagSide("right")
    left_tag.connect(join)
    right_tag.connect(join)
    left_tag.receive_many(metadata)
    right_tag.receive_many(
        [
            UncertainTuple(
                {
                    "road_id": result.value("segment_id").distribution.mean(),
                    "delay": result.value("delay"),
                }
            )
            for result in delay_tuples
        ]
    )
    print(f"joined {len(join_sink.results)} roads with metadata")
    per_meter = [
        r.dfsized("r_delay").distribution.mean() / r.value("l_length_m")
        for r in join_sink.results
    ]
    print(f"  mean delay per meter: {np.mean(per_meter):.3f} s/m")

    # --- per-speed-limit aggregate ----------------------------------------
    grouped = GroupedAggregate(
        "speed_limit", "delay", window_size=500, agg="avg",
        emit_every=False,
    )
    group_sink = CollectSink()
    group_pipe = Pipeline([grouped, group_sink])
    source = [
        UncertainTuple(
            {
                "speed_limit": result.value("speed_limit")
                .distribution.mean(),
                "delay": result.value("delay"),
            }
        )
        for result in db.query(
            "SELECT segment_id, delay, speed_limit FROM roads"
        )
    ]
    group_pipe.run(source)
    print("\naverage delay by speed-limit class (stream operator):")
    for row in group_sink.results:
        avg = row.value("avg")
        print(
            f"  {row.value('speed_limit'):>4.0f} mph roads: "
            f"{avg.distribution.mean():7.1f}s "
            f"(min sample size in class: {avg.sample_size})"
        )

    # The same question in one SQL line (GROUP BY over the buffer):
    print("\naverage delay by speed-limit class (SQL GROUP BY):")
    for row in db.query(
        "SELECT AVG(delay) AS m, COUNT(*) AS roads FROM roads "
        "GROUP BY speed_limit"
    ):
        print(
            f"  {row.value('speed_limit').distribution.mean():>4.0f} mph: "
            f"{row.value('m').distribution.mean():7.1f}s over "
            f"{row.value('roads').distribution.mean():.0f} roads"
        )

    _persistence_demo(db)


def _persistence_demo(db) -> None:
    import tempfile
    import pathlib

    from repro import load_database, save_database
    from repro.db import StreamDatabase

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "window.json"
        save_database(db, path)
        restored = load_database(path)
        results = restored.query("SELECT segment_id, delay FROM roads")
        print(
            f"\npersistence: saved {db.count('roads')} road tuples, "
            f"reloaded {restored.count('roads')}; accuracy survives "
            f"(first road n={results[0].accuracy['delay'].sample_size})"
        )


if __name__ == "__main__":
    main()
