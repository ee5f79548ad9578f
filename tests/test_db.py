"""Tests for the StreamDatabase facade."""

import pytest

from repro.core.coupled import ThreeValued
from repro.db import StreamDatabase
from repro.errors import QueryError, SchemaError, StreamError
from repro.learning.gaussian_learner import GaussianLearner
from repro.query.executor import ExecutorConfig
from repro.streams.tuples import Schema, UncertainTuple


@pytest.fixture
def db() -> StreamDatabase:
    return StreamDatabase(config=ExecutorConfig(seed=5, confidence=0.9))


def _report(road, delay, limit=25.0):
    return {"road_id": road, "delay": delay, "speed_limit": limit}


class TestStreamManagement:
    def test_create_list_drop(self, db):
        db.create_stream("roads")
        db.create_stream("alerts")
        assert db.streams() == ["alerts", "roads"]
        db.drop_stream("alerts")
        assert db.streams() == ["roads"]

    def test_duplicate_rejected(self, db):
        db.create_stream("roads")
        with pytest.raises(StreamError):
            db.create_stream("roads")

    def test_bad_name_rejected(self, db):
        with pytest.raises(StreamError):
            db.create_stream("not a name")

    def test_unknown_stream_rejected(self, db):
        with pytest.raises(StreamError):
            db.insert("ghost", {"x": 1.0})

    def test_bounded_buffer(self):
        db = StreamDatabase(max_tuples_per_stream=3)
        db.create_stream("s")
        for i in range(5):
            db.insert("s", {"x": float(i)})
        assert db.count("s") == 3


class TestInsertAndSchema:
    def test_mapping_becomes_tuple(self, db):
        db.create_stream("s")
        db.insert("s", {"x": 1.0})
        assert db.count("s") == 1

    def test_schema_enforced(self, db):
        db.create_stream("s", Schema([("x", "number")]))
        db.insert("s", {"x": 1.0})
        with pytest.raises(SchemaError):
            db.insert("s", {"x": "text"})

    def test_insert_many(self, db):
        db.create_stream("s")
        inserted = db.insert_many("s", [{"x": 1.0}, {"x": 2.0}])
        assert inserted == 2


class TestIngestObservations:
    def test_figure1_transformation(self, db, rng):
        db.create_stream("roads")
        records = (
            [_report(19, float(d)) for d in rng.normal(60, 10, 3)]
            + [_report(20, float(d), 30.0) for d in rng.normal(70, 10, 50)]
        )
        produced = db.ingest_observations(
            "roads", records, group_by="road_id", value="delay",
            carry=("speed_limit",),
        )
        assert produced == 2
        results = db.query("SELECT road_id, delay, speed_limit FROM roads")
        by_road = {
            r.value("road_id").distribution.mean(): r for r in results
        }
        assert by_road[19.0].accuracy["delay"].sample_size == 3
        assert by_road[20.0].accuracy["delay"].sample_size == 50
        assert by_road[20.0].value("speed_limit").distribution.mean() == 30.0

    def test_min_observations_skips_sparse_groups(self, db):
        db.create_stream("roads")
        produced = db.ingest_observations(
            "roads",
            [_report(1, 10.0), _report(2, 10.0), _report(2, 12.0)],
            group_by="road_id", value="delay",
        )
        assert produced == 1  # road 1 has only one observation

    def test_custom_learner(self, db, rng):
        db.create_stream("roads")
        db.ingest_observations(
            "roads",
            [_report(1, float(d)) for d in rng.normal(50, 5, 20)],
            group_by="road_id", value="delay",
            learner=GaussianLearner(),
        )
        results = db.query("SELECT delay FROM roads")
        from repro.distributions.gaussian import GaussianDistribution

        assert isinstance(
            results[0].value("delay").distribution, GaussianDistribution
        )

    def test_malformed_record_rejected(self, db):
        db.create_stream("roads")
        with pytest.raises(SchemaError):
            db.ingest_observations(
                "roads", [{"oops": 1}], group_by="road_id", value="delay",
            )


class TestQuery:
    def test_query_routes_to_named_stream(self, db, rng):
        db.create_stream("roads")
        db.create_stream("other")
        db.ingest_observations(
            "roads",
            [_report(1, float(d)) for d in rng.normal(80, 5, 30)],
            group_by="road_id", value="delay",
        )
        assert len(db.query("SELECT delay FROM roads")) == 1
        assert db.query("SELECT x FROM other") == []

    def test_unknown_source_raises(self, db):
        with pytest.raises(StreamError):
            db.query("SELECT x FROM ghost")

    def test_significance_query_through_facade(self, db, rng):
        db.create_stream("roads")
        db.ingest_observations(
            "roads",
            [_report(1, float(d)) for d in rng.normal(90, 5, 40)]
            + [_report(2, float(d)) for d in rng.normal(50, 5, 40)],
            group_by="road_id", value="delay",
        )
        results = db.query(
            "SELECT road_id FROM roads WHERE mTest(delay, '>', 70, 0.05, 0.05)"
        )
        assert len(results) == 1
        assert results[0].decisions == (ThreeValued.TRUE,)


class TestContinuousQueries:
    def test_callback_fires_on_matching_insert(self, db, rng):
        db.create_stream("readings")
        hits = []
        cq = db.register_continuous(
            "hot", "SELECT temp FROM readings WHERE temp > 100 PROB 0.9",
            hits.append,
        )
        learner = GaussianLearner()
        cool = learner.learn(rng.normal(50, 5, 20)).as_dfsized()
        hot = learner.learn(rng.normal(120, 5, 20)).as_dfsized()
        db.insert("readings", UncertainTuple({"temp": cool}))
        db.insert("readings", UncertainTuple({"temp": hot}))
        assert len(hits) == 1
        assert cq.matches == 1

    def test_only_matching_source_triggers(self, db):
        db.create_stream("a")
        db.create_stream("b")
        hits = []
        db.register_continuous(
            "watch", "SELECT x FROM a WHERE x > 0", hits.append
        )
        db.insert("b", {"x": 5.0})
        assert hits == []
        db.insert("a", {"x": 5.0})
        assert len(hits) == 1

    def test_duplicate_name_rejected(self, db):
        db.create_stream("a")
        db.register_continuous("q", "SELECT x FROM a", lambda r: None)
        with pytest.raises(QueryError):
            db.register_continuous("q", "SELECT x FROM a", lambda r: None)

    def test_unregister(self, db):
        db.create_stream("a")
        hits = []
        db.register_continuous("q", "SELECT x FROM a", hits.append)
        db.unregister_continuous("q")
        db.insert("a", {"x": 1.0})
        assert hits == []
        with pytest.raises(QueryError):
            db.unregister_continuous("q")

    def test_drop_stream_removes_its_queries(self, db):
        db.create_stream("a")
        db.register_continuous("q", "SELECT x FROM a", lambda r: None)
        db.drop_stream("a")
        assert db.continuous_queries() == []


class TestStats:
    def test_stats_reflect_activity(self, db):
        db.create_stream("s")
        db.register_continuous("watch", "SELECT x FROM s", lambda r: None)
        db.insert("s", {"x": 1.0})
        db.insert("s", {"x": 2.0})
        stats = db.stats("s")
        assert stats["buffered"] == 2
        assert stats["inserted"] == 2
        assert stats["has_schema"] is False
        assert stats["watchers"] == ["watch"]

    def test_inserted_counts_past_evictions(self):
        db = StreamDatabase(max_tuples_per_stream=2)
        db.create_stream("s")
        for i in range(5):
            db.insert("s", {"x": float(i)})
        stats = db.stats("s")
        assert stats["buffered"] == 2
        assert stats["inserted"] == 5


class TestWeightedIngestion:
    def test_age_decay_tracks_fresh_readings(self, db):
        # Old readings say 100, fresh ones say 10; a flat learner would
        # average them, decay follows the fresh evidence.
        records = (
            [{"g": 1, "v": 100.0, "mins": 60.0}] * 10
            + [{"g": 1, "v": 10.0, "mins": 0.0}] * 10
        )
        db.create_stream("s")
        db.ingest_observations(
            "s", records, group_by="g", value="v",
            age="mins", half_life=5.0,
        )
        result = db.query("SELECT v FROM s")[0]
        field = result.value("v")
        assert field.distribution.mean() == pytest.approx(10.0, abs=0.5)
        # Decay discounts the stale half: effective n well below 20.
        assert field.sample_size < 15

    def test_age_and_half_life_must_pair(self, db):
        db.create_stream("s")
        with pytest.raises(SchemaError, match="together"):
            db.ingest_observations(
                "s", [{"g": 1, "v": 1.0}], group_by="g", value="v",
                age="mins",
            )

    def test_learner_and_decay_are_exclusive(self, db):
        db.create_stream("s")
        with pytest.raises(SchemaError, match="not both"):
            db.ingest_observations(
                "s", [{"g": 1, "v": 1.0, "m": 0.0}], group_by="g",
                value="v", learner="gaussian", age="m", half_life=1.0,
            )

    def test_missing_age_column_rejected(self, db):
        db.create_stream("s")
        with pytest.raises(SchemaError, match="lacks"):
            db.ingest_observations(
                "s", [{"g": 1, "v": 1.0}], group_by="g", value="v",
                age="mins", half_life=1.0,
            )
