"""Golden-trace regression test.

Runs a small deterministic two-window aggregation and pins the shape of
the span spine it produces: the span tree levels, phase names, task
naming scheme, timestamp sanity, exporter validity, and agreement with
``WindowMetrics``. Any instrumentation regression — a phase span that
stops closing, tasks losing their parent, scheduler events vanishing —
fails here before it can silently corrupt exported traces.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentConfig, run_redoop_series
from repro.hadoop.config import small_test_config
from repro.hadoop.timeline import SchedulingDecision
from repro.trace import (
    CAT_PHASE,
    CAT_RECURRENCE,
    CAT_RUN,
    CAT_SCHED,
    CAT_TASK,
    PHASE_NAMES,
    chrome_trace_document,
    validate_chrome_trace,
    window_reports,
)


def golden_config() -> ExperimentConfig:
    return ExperimentConfig(
        kind="aggregation",
        win=40.0,
        overlap=0.75,
        num_windows=2,
        rate=2_000.0,
        record_size=100,
        num_reducers=4,
        cluster_config=small_test_config(),
        seed=11,
        batches_per_pane=2,
    )


@pytest.fixture(scope="module")
def result():
    return run_redoop_series(golden_config(), label="redoop")


@pytest.fixture(scope="module")
def tracer(result):
    assert result.tracer is not None
    return result.tracer


class TestSpanTree:
    def test_exactly_one_run_span(self, tracer):
        runs = tracer.spans(category=CAT_RUN)
        assert len(runs) == 1
        assert runs[0].name == "redoop-run"

    def test_one_recurrence_span_per_window(self, tracer, result):
        recs = tracer.spans(category=CAT_RECURRENCE)
        assert [r.attrs["window"] for r in recs] == [
            w.recurrence for w in result.windows
        ]
        run = tracer.spans(category=CAT_RUN)[0]
        assert all(r.parent_id == run.span_id for r in recs)

    def test_each_recurrence_has_all_five_phases(self, tracer):
        for rec in tracer.spans(category=CAT_RECURRENCE):
            phases = tracer.spans(category=CAT_PHASE, parent=rec)
            assert tuple(p.name for p in phases) == PHASE_NAMES

    def test_tasks_parent_to_phases_making_four_levels(self, tracer):
        # run -> recurrence -> phase -> task: the >=4 levels the issue pins.
        phase_ids = {p.span_id for p in tracer.spans(category=CAT_PHASE)}
        tasks = tracer.spans(category=CAT_TASK)
        assert tasks
        assert all(t.parent_id in phase_ids for t in tasks)

    def test_phase_spans_envelope_their_tasks(self, tracer):
        checked = 0
        for phase in tracer.spans(category=CAT_PHASE):
            env = tracer.envelope(tracer.children(phase))
            if phase.name in ("pane-reduce", "combine") and env is not None:
                assert (phase.start, phase.end) == env
                checked += 1
        assert checked

    def test_task_names_follow_the_scheme(self, tracer):
        prefixes = ("map/", "shuffle/", "pane-reduce/", "merge/", "join/")
        for task in tracer.spans(category=CAT_TASK):
            assert task.name.startswith(prefixes), task.name
            assert task.node_id is not None

    def test_timestamps_are_sane(self, tracer):
        run = tracer.spans(category=CAT_RUN)[0]
        for span in tracer.spans():
            assert span.end is not None, f"{span.name} never closed"
            assert span.end >= span.start >= 0.0
            assert run.start <= span.start and span.end <= run.end

    def test_recurrence_span_is_the_response_time(self, tracer, result):
        for rec, metrics in zip(
            tracer.spans(category=CAT_RECURRENCE), result.windows
        ):
            assert rec.duration == pytest.approx(metrics.response_time)
            assert rec.attrs["response_time"] == pytest.approx(
                metrics.response_time
            )


class TestSchedulerEvents:
    def test_decisions_ride_the_spine(self, tracer):
        events = tracer.events(category=CAT_SCHED)
        assert events, "scheduler decisions should be trace events"
        assert all(e.name.startswith("sched.") for e in events)
        assert all(isinstance(e.data, SchedulingDecision) for e in events)

    def test_algorithm2_vocabulary_present(self, tracer):
        names = {e.name for e in tracer.events(category=CAT_SCHED)}
        # Algorithm 2's pop -> select -> execute cycle, as event families.
        assert {"sched.pop", "sched.select", "sched.execute"} <= names


class TestExportAndReport:
    def test_exported_document_is_valid(self, tracer):
        doc = chrome_trace_document({"redoop": tracer})
        assert validate_chrome_trace(doc) == []

    def test_per_node_tracks_exist(self, tracer):
        doc = chrome_trace_document({"redoop": tracer})
        node_pids = {
            e["pid"]
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["args"].get("category") == "task"
        }
        assert len(node_pids) >= 2, "tasks should span multiple node tracks"
        assert 0 not in node_pids, "tasks never live in the master process"

    def test_report_matches_window_metrics(self, tracer, result):
        reports = window_reports(tracer)
        assert len(reports) == len(result.windows)
        for report, metrics in zip(reports, result.windows):
            assert report.response_time == pytest.approx(metrics.response_time)
            assert report.finish == pytest.approx(metrics.finish_time, abs=1e-5)


class TestDeterminism:
    def test_identical_runs_produce_identical_spines(self):
        def fingerprint():
            tracer = run_redoop_series(golden_config(), label="redoop").tracer
            return [
                (s.name, s.category, s.node_id, round(s.start, 9),
                 round(s.end, 9))
                for s in tracer.spans()
            ]

        first, second = fingerprint(), fingerprint()
        assert first == second
