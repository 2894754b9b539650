"""Self-tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import wl_channel  # noqa: E402
import wl_sweep  # noqa: E402
from spans import Tracer, covered  # noqa: E402


def _fingerprints(specs):
    return [s.fingerprint() for s in specs]


def test_spec_stream_is_deterministic_for_a_seed():
    a, b = wl_sweep.spec_stream(7, 80), wl_sweep.spec_stream(7, 80)
    assert _fingerprints(a) == _fingerprints(b)
    assert _fingerprints(a) != _fingerprints(wl_sweep.spec_stream(8, 80))


def test_spec_stream_repeats_exactly_a_quarter():
    specs = wl_sweep.spec_stream(3, 200)
    assert len(set(_fingerprints(specs))) == 200 - round(200 * wl_sweep.REPEAT_SHARE)
    kinds = {s.config.scenario.name for s in specs}
    assert kinds == set(wl_sweep.KINDS)


def test_disturbance_schedule_is_deterministic_and_covers_half():
    for seed in range(6):
        rank, phases = wl_channel.disturbance_schedule(seed)
        assert (rank, phases) == wl_channel.disturbance_schedule(seed)
        assert rank in (0, 1)
        assert len(phases) == wl_channel.PHASES_2RANK // 2
        assert min(phases) >= 1 and max(phases) <= wl_channel.PHASES_2RANK
    schedules = {wl_channel.disturbance_schedule(s) for s in range(6)}
    assert len(schedules) > 1


def test_emulated_load_reports_synthetic_index():
    load = wl_channel.EmulatedLoad(rank=1, phases=frozenset({2}))
    points = 1000
    base = points * wl_channel.COST_PER_POINT
    assert load(0, 2, points) == pytest.approx(base)
    assert load(1, 3, points) == pytest.approx(base)
    assert load(1, 2, points) == pytest.approx(base / wl_channel.AVAILABLE_SHARE)
    assert load.sleep_s(0, 2, points) == 0.0
    assert load.sleep_s(1, 2, points) == pytest.approx(
        base * (1 / wl_channel.AVAILABLE_SHARE - 1)
    )


def test_percentile_summary_reports_count_and_highest_resolved_percentile():
    s = harness.percentile_summary(range(1000))
    assert s["count"] == 1000
    assert s["p50"] == pytest.approx(499.5)
    assert s["p99"] == pytest.approx(989.01)
    assert set(s) == {"count", "top_percentile", "p50", "p90", "p95", "p99", "p99.9"}
    assert s["top_percentile"] == 99.0
    assert harness.percentile_summary(range(100))["top_percentile"] == 90.0
    assert harness.percentile_summary(range(199))["top_percentile"] == 90.0
    assert harness.percentile_summary(range(200))["top_percentile"] == 95.0
    assert harness.percentile_summary(range(19))["top_percentile"] is None
    assert harness.percentile_summary([]) == {"count": 0, "top_percentile": None}


def test_metric_names_units_and_directions():
    # The registry is BENCHMARK.json itself: names are unique across it.
    assert len(harness.ALL_METRICS) == len(harness.END_TO_END) + len(harness.PER_LAYER)
    for m in harness.ALL_METRICS.values():
        assert harness.NAME_RE.match(m.name), m.name
        assert m.unit and len(m.unit) <= 16
        assert m.better in ("lower", "higher")
    for m in harness.END_TO_END:
        assert m.bound is not None and 0 < m.bound <= 0.25
    setup = next(m for m in harness.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in harness.END_TO_END)


def test_predictions_name_known_metrics_and_workloads():
    names = set(harness.ALL_METRICS)
    for p in harness.PREDICTIONS:
        for pattern in p.metrics:
            prefix, _, suffix = pattern.partition("*")
            assert any(n.startswith(prefix) and n.endswith(suffix) for n in names), pattern
        for metric, workload in p.moves:
            assert metric in names and workload in harness.WORKLOADS
        assert set(p.flat_on) <= set(harness.WORKLOADS)


def test_result_line_fills_unexercised_layers_and_counts_failures():
    out = harness.Outcome(metrics={m.name: 1.0 for m in harness.END_TO_END})
    out.check(True, "ok")
    out.check(False, "bad")
    line, human = harness.result_line(out, trace=False)
    doc = json.loads(line)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (False, 2, 1)
    assert set(doc["metrics"]) == {m.name for m in harness.END_TO_END}
    assert any(h.startswith("failed_share = 0.5") for h in human)
    traced, _ = harness.result_line(out, trace=True)
    assert set(json.loads(traced)["metrics"]) == {m.name for m in harness.PER_LAYER}
    with pytest.raises(KeyError):
        harness.result_line(harness.Outcome(), trace=False)


def test_self_time_subtracts_covered_child_intervals():
    t = Tracer()
    root = t.add("root", 0.0, 10.0)
    t.add("a", 1.0, 4.0, parent=root.id)
    t.add("b", 3.0, 5.0, parent=root.id)
    t.add("c", 9.0, 12.0, parent=root.id)  # clipped to the root
    assert covered(root, t.children()[root.id]) == pytest.approx(5.0)
    assert t.self_times()[root.id] == pytest.approx(5.0)
    assert t.residual_share() == pytest.approx(0.5)


def test_wrap_records_nested_spans_and_restores():
    class Target:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    t = Tracer()
    t.wrap(Target, "outer", "outer")
    t.wrap(Target, "inner", "inner")
    assert Target().outer() == 2
    t.restore()
    outer, = t.named("outer")
    inner, = t.named("inner")
    assert inner.parent == outer.id and outer.parent is None
    assert Target.outer.__qualname__.endswith("Target.outer")
    assert Target().outer() == 2 and len(t.spans) == 2


def test_channel_2rank_reads_its_peak_rss_before_the_reference(monkeypatch, tmp_path):
    """A tiny channel through the whole 2-rank workload: its checks pass,
    and it sets ``peak_rss_mb`` itself, before the sequential reference
    run that exists only to check the output."""
    from repro import api

    monkeypatch.setattr(wl_channel, "SHAPE", (16, 6, 4))
    monkeypatch.setattr(wl_channel, "POINTS", 16 * 6 * 4)
    monkeypatch.setattr(wl_channel, "SETUP_REPEATS", 1)
    events = []
    real_run = api.run

    def run(spec):
        events.append(f"run ranks={spec.ranks} phases={spec.phases}")
        return real_run(spec)

    def rss():
        events.append("rss")
        return 1.0

    monkeypatch.setattr(api, "run", run)
    monkeypatch.setattr(wl_channel, "peak_rss_mb", rss)
    out = wl_channel.run_channel_2rank(1, 0.0, None, tmp_path)
    assert out.failed == 0 and out.attempted > 0, out.notes
    assert out.metrics["peak_rss_mb"] == 1.0
    reference = f"run ranks=1 phases={wl_channel.PHASES_2RANK}"
    assert events.index("rss") < events.index(reference)
    assert events.index("rss") > events.index(f"run ranks=2 phases={wl_channel.PHASES_2RANK}")


def test_stop_helper_processes_waits_for_the_resource_tracker():
    """Shared memory starts multiprocessing's resource tracker; the
    benchmark stops it and waits for it before exiting."""
    from multiprocessing import resource_tracker, shared_memory

    import run

    shm = shared_memory.SharedMemory(create=True, size=64)
    try:
        pid = resource_tracker._resource_tracker._pid
        assert pid is not None
    finally:
        shm.close()
        shm.unlink()
    run.stop_helper_processes()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
