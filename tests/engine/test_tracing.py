"""Cross-process tracing: spans, Chrome export, fault runs, bit-identity."""

import json
import os

from repro.engine import trace as trace_mod
from repro.engine.config import EngineConfig
from repro.engine.events import (
    BatchEnded,
    BatchStarted,
    ExperimentEnded,
    ExperimentStarted,
    RunEnded,
    RunStarted,
    SpansCollected,
    TaskRetried,
)
from repro.engine.faults import FaultPlan
from repro.engine.parallel import ParallelChipRunner
from repro.engine.registry import get_experiment
from repro.engine.trace import (
    NULL_SPAN,
    Span,
    TracedResult,
    Tracer,
    activate,
    collect_task_spans,
    current_tracer,
    peak_rss_kb,
    span,
    tracing_active,
)


def _square(x):
    return x * x


def _traced_square(x):
    # Module-level so it crosses the process boundary by reference; the
    # span lands in the worker's per-task collector.
    with span("square", cat="task", x=x):
        return x * x


def drive_run(tracer):
    """One run / one experiment / one batch through the event surface."""
    tracer.handle(RunStarted(1))
    tracer.handle(ExperimentStarted("fig10_hundred_chips"))
    tracer.handle(BatchStarted("eval", 4))
    tracer.handle(BatchEnded("eval", 4, 0.2))
    tracer.handle(TaskRetried("eval", 2, 1, "ValueError"))
    tracer.handle(ExperimentEnded("fig10_hundred_chips", 0.3, False))
    tracer.handle(RunEnded(0.4))


class TestAmbientSpans:
    def test_span_is_noop_without_tracer(self):
        assert not tracing_active()
        assert current_tracer() is None
        assert span("anything") is NULL_SPAN
        with span("anything") as sp:
            sp.set(extra=1)  # must not raise

    def test_activate_records_into_tracer(self):
        tracer = Tracer()
        with activate(tracer):
            assert tracing_active() and current_tracer() is tracer
            with span("work", cat="kernel", chip_id=3) as sp:
                sp.set(hit=True)
        assert not tracing_active()
        (recorded,) = tracer.spans()
        assert recorded.name == "work"
        assert recorded.cat == "kernel"
        assert recorded.duration_ns >= 0
        assert recorded.pid == os.getpid()
        assert dict(recorded.args) == {"chip_id": 3, "hit": True}

    def test_activate_none_is_noop_context(self):
        with activate(None) as tracer:
            assert tracer is None
            assert not tracing_active()

    def test_activate_restores_previous_tracer(self):
        outer, inner = Tracer(), Tracer()
        with activate(outer):
            with activate(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer

    def test_collect_task_spans_isolates_and_exposes(self):
        outer = Tracer()
        with activate(outer):
            with collect_task_spans() as collected:
                with span("inner"):
                    pass
            assert current_tracer() is outer
        assert [s.name for s in collected.spans] == ["inner"]
        assert outer.spans() == ()

    def test_peak_rss_is_positive_on_posix(self):
        assert peak_rss_kb() > 0


class TestTracerEvents:
    def test_lifecycle_events_become_spans(self):
        tracer = Tracer()
        drive_run(tracer)
        by_cat = {}
        for s in tracer.spans():
            by_cat.setdefault(s.cat, []).append(s)
        assert [s.name for s in by_cat["run"]] == ["run"]
        assert [s.name for s in by_cat["experiment"]] == [
            "fig10_hundred_chips"
        ]
        assert [s.name for s in by_cat["batch"]] == ["eval"]
        (retry,) = tracer.instants()
        assert retry.name == "task_retried"

    def test_spans_collected_merges_worker_batch(self):
        tracer = Tracer()
        worker_span = Span("w", "task", 10, 5, pid=999, tid=1)
        tracer.handle(SpansCollected("eval", (worker_span,), 999, 4096))
        assert tracer.spans() == (worker_span,)
        table = tracer.phase_table()
        assert table["peak_rss_kb_by_pid"] == {"999": 4096}

    def test_unmatched_end_is_dropped(self):
        tracer = Tracer()
        tracer.handle(ExperimentEnded("never_started", 1.0, False))
        assert tracer.spans() == ()

    def test_phase_table_aggregates_and_covers(self):
        tracer = Tracer()
        drive_run(tracer)
        table = tracer.phase_table()
        assert set(table) == {
            "phases", "wall_clock_coverage", "peak_rss_kb_by_pid",
        }
        phases = table["phases"]
        assert phases["run"]["spans"] == 1
        assert phases["experiment"]["by_name"]["fig10_hundred_chips"][
            "spans"
        ] == 1
        # The experiment span covers nearly the whole run span.
        assert 0.0 < table["wall_clock_coverage"] <= 1.0


class TestChromeExport:
    def test_trace_file_is_chrome_loadable(self, tmp_path):
        tracer = Tracer()
        drive_run(tracer)
        tracer.handle(SpansCollected("eval", (), 4321, 2048))
        path = tracer.to_chrome(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        assert set(document) >= {"traceEvents", "displayTimeUnit"}
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert {"name", "ph", "ts", "pid"} <= set(event)
            assert event["ph"] in {"X", "i", "C"}
            assert event["ts"] >= 0.0
            assert isinstance(event["args"], dict)
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
                assert "cat" in event
            if event["ph"] == "i":
                assert event["s"] == "g"
        counters = [e for e in events if e["ph"] == "C"]
        assert {"name": "peak_rss", "ph": "C", "ts": 0.0, "pid": 4321,
                "tid": 0, "args": {"rss_kb": 2048}} in counters

    def test_timestamps_are_relative_to_earliest(self, tmp_path):
        tracer = Tracer()
        drive_run(tracer)
        events = tracer.chrome_events()
        assert min(e["ts"] for e in events) == 0.0


class TestWorkerSpanCollection:
    def test_worker_spans_ship_home_and_nest_in_batch(self):
        tracer = Tracer()
        config = EngineConfig(workers=2, retry_backoff_s=0.001)
        with activate(tracer):
            with ParallelChipRunner(config=config) as runner:
                results = runner.map(
                    _traced_square, [1, 2, 3, 4],
                    observer=tracer, label="traced",
                )
        assert results == [1, 4, 9, 16]
        task_spans = [s for s in tracer.spans() if s.name == "square"]
        assert len(task_spans) == 4
        (batch,) = [s for s in tracer.spans() if s.cat == "batch"]
        supervisor_pid = os.getpid()
        for s in task_spans:
            assert s.pid != supervisor_pid
            # CLOCK_MONOTONIC is system-wide on Linux, so worker spans
            # nest inside the supervisor's batch span.
            assert batch.start_ns <= s.start_ns
            assert s.end_ns <= batch.end_ns
        # Worker peak RSS arrived with the span batches.
        assert tracer.phase_table()["peak_rss_kb_by_pid"]

    def test_span_nesting_survives_worker_crash_and_retry(self):
        tracer = Tracer()
        plan = FaultPlan(seed=3, crash_rate=1.0, max_faults_per_task=1)
        config = EngineConfig(
            workers=2, fault_plan=plan, max_retries=3,
            retry_backoff_s=0.001,
        )
        with activate(tracer):
            with ParallelChipRunner(config=config) as runner:
                results = runner.map(
                    _traced_square, [1, 2, 3],
                    observer=tracer, label="faulty",
                )
        assert results == [1, 4, 9]
        (batch,) = [s for s in tracer.spans() if s.cat == "batch"]
        task_spans = [s for s in tracer.spans() if s.name == "square"]
        # Every surviving attempt recorded a span nested in the batch.
        assert len(task_spans) >= 3
        for s in task_spans:
            assert batch.start_ns <= s.start_ns
            assert s.end_ns <= batch.end_ns
        # The crash/retry churn shows up as instants, not as spans.
        instant_names = {i.name for i in tracer.instants()}
        assert "task_retried" in instant_names or (
            "worker_respawned" in instant_names
        )

    def test_untraced_runs_collect_nothing(self):
        config = EngineConfig(workers=2, retry_backoff_s=0.001)
        collected = []
        with ParallelChipRunner(config=config) as runner:
            runner.map(
                _traced_square, [1, 2],
                observer=collected.append, label="plain",
            )
        assert not any(
            isinstance(e, SpansCollected) for e in collected
        )

    def test_traced_result_never_reaches_caller(self):
        tracer = Tracer()
        config = EngineConfig(workers=2, retry_backoff_s=0.001)
        with activate(tracer):
            with ParallelChipRunner(config=config) as runner:
                results = runner.map(_square, [5], observer=tracer)
        assert not any(isinstance(r, TracedResult) for r in results)
        assert results == [25]


class TestBitIdentity:
    """Tracing is observational: traced and untraced outputs match."""

    def _run(self, name, traced):
        from repro.experiments.runner import ExperimentContext

        experiment = get_experiment(name)
        context = ExperimentContext(n_chips=2, n_references=800, seed=21)
        tracer = Tracer() if traced else None
        with activate(tracer):
            result, _ = experiment.execute(context, None)
        report = experiment.report(result)
        exports = {
            export.filename: (export.headers, export.rows)
            for export in experiment.csv_exports(result)
        }
        if traced:
            assert tracer.spans(), "traced run must record spans"
        return (report, exports), tracer

    def test_fig10_identical_with_and_without_tracing(self):
        baseline, _ = self._run("fig10_hundred_chips", traced=False)
        traced, _ = self._run("fig10_hundred_chips", traced=True)
        assert traced == baseline

    def test_table3_identical_with_and_without_tracing(self):
        baseline, _ = self._run("table3", traced=False)
        traced, tracer = self._run("table3", traced=True)
        assert traced == baseline
        # Each build draws one chip's fields and solves it at all three
        # nodes; the span says how many points the draw served.
        builds = [s for s in tracer.spans() if s.name == "array.chip.build"]
        assert builds
        assert all(dict(s.args)["points"] == 3 for s in builds)
