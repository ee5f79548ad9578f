"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
from tracing import SpanRecorder, traced
from workloads import WORKLOADS, MeanAlarm, ResultCounter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 0.3


def tiny(name: str, seed: int = 5):
    return WORKLOADS[name](seed, tiny=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name):
    result = run.measure(tiny(name), SECONDS, trace=False)
    assert result["correct"], result["record"]["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for key, value in result["metrics"].items():
        assert math.isfinite(value) and value > 0, key

    traced_result = run.measure(tiny(name), SECONDS, trace=True)
    assert traced_result["correct"], traced_result["record"]["errors"]
    assert set(traced_result["metrics"]) == set(layers.PER_LAYER)
    assert traced_result["record"]["unwrapped"] == []
    assert len(traced_result["recorder"]) > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == layers.PER_LAYER


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reproduces_inputs_and_results(name):
    def digests(seed):
        workload = tiny(name, seed)
        system = workload.build()
        return workload.input_digest(), workload.warmup(system).digest

    first = digests(7)
    assert digests(7) == first
    other = digests(8)
    assert other[0] != first[0]
    assert other[1] != first[1]


def _attributes():
    return [
        (owner, attribute, vars(owner).get(attribute, None))
        for owner, attribute, *_ in layers.targets()
    ]


def _assert_restored(before):
    for (owner, attribute, original), (_o, _a, now) in zip(
        before, _attributes()
    ):
        assert now is original, f"{owner.__name__}.{attribute}"


def test_wrappers_are_removed_after_a_traced_run():
    before = _attributes()
    assert all(
        getattr(owner, attribute, None) is not None
        for owner, attribute, _ in before
    )
    for name in WORKLOADS:
        run.measure(tiny(name), SECONDS, trace=True)
        _assert_restored(before)


def test_wrappers_are_removed_when_the_run_raises():
    before = _attributes()
    with pytest.raises(RuntimeError, match="boom"):
        with traced(SpanRecorder(), layers.targets()) as missing:
            assert missing == []
            raise RuntimeError("boom")
    _assert_restored(before)


def test_host_speed_scaling_keeps_program_changes():
    calls = [0.010, 0.012, 0.011, 0.010, 0.013]
    probes = [run.PROBE_NOMINAL_MS] * len(calls)
    assert run.scaled(calls, probes) == pytest.approx(calls)
    # A host twice as slow slows the calls and the probes: it cancels.
    slow = run.scaled([2 * c for c in calls], [2 * p for p in probes])
    assert slow == pytest.approx(calls)
    # A program twice as slow slows the calls only: it shows in full.
    slower = run.scaled([2 * c for c in calls], probes)
    assert slower == pytest.approx([2 * c for c in calls])


def test_self_time_excludes_child_spans():
    recorder = SpanRecorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.finish(inner)
    recorder.finish(outer)
    table = recorder.layer_table()
    duration = recorder.end[outer] - recorder.start[outer]
    child = recorder.end[inner] - recorder.start[inner]
    assert table["outer"]["self_s"] == pytest.approx(duration - child)
    assert recorder.root_seconds() == pytest.approx(duration)


def _doctored(workload, doctor):
    original = workload.read
    workload.read = lambda system, j: doctor(original(system, j))
    return workload


@pytest.mark.parametrize(
    "name, doctor",
    [
        ("sql_ingest", lambda rows: rows + rows[:1]),
        ("learn_and_read", lambda rows: (rows[0][:-1], rows[1])),
        ("sketch_stream", lambda rows: rows[::-1]),
    ],
)
def test_a_wrong_read_counts_as_failed(name, doctor):
    result = run.measure(
        _doctored(tiny(name), doctor), SECONDS, trace=False
    )
    assert result["failed"] > 0
    assert not result["correct"]
    assert result["record"]["failed_frac"] > 0


def test_a_wrong_ingest_result_counts_as_failed():
    workload = tiny("sql_ingest")
    original = workload.ingest

    def ingest(system, i):
        n = original(system, i)
        alerts, monitored = system.last
        system.last = (alerts + 1, monitored)  # one alert too many
        return n

    workload.ingest = ingest
    result = run.measure(workload, SECONDS, trace=False)
    # Warm-up, timed and end-of-pass calls are numbered 0, 1, ...
    assert result["failed"] == result["record"]["state_at_call"]


def test_imports_only_public_names():
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.module or ""
            ).startswith("repro"):
                parts = node.module.split(".")
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                parts = [
                    p
                    for alias in node.names
                    if alias.name.startswith("repro")
                    for p in alias.name.split(".")
                ]
                names = []
            else:
                continue
            private = [n for n in parts + names if n.startswith("_")]
            assert not private, f"{path.name}: {private}"
    for owner, attribute, *_ in layers.targets():
        if owner not in (ResultCounter, MeanAlarm):
            assert not attribute.startswith("_"), attribute


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / HERE.name,
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sql_ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
