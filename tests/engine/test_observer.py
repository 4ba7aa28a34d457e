"""Progress/timing consumers of the typed event stream."""

import io
import json
import warnings

from repro.engine.events import (
    BatchEnded,
    BatchStarted,
    ChipCompleted,
    EngineEvent,
    ExperimentEnded,
    ExperimentStarted,
    RunEnded,
    RunStarted,
    TaskRetried,
)
from repro.engine.observer import (
    CLIProgressReporter,
    CompositeObserver,
    JSONMetricsObserver,
    NULL_OBSERVER,
    RunObserver,
)


def drive(observer) -> None:
    """Send one complete run's worth of typed events."""
    observer.handle(RunStarted(1))
    observer.handle(ExperimentStarted("fig10"))
    observer.handle(BatchStarted("eval", 8))
    for i in range(1, 9):
        observer.handle(ChipCompleted("eval", i, 8))
    observer.handle(BatchEnded("eval", 8, 0.5))
    observer.handle(ExperimentEnded("fig10", 0.6, False))
    observer.handle(RunEnded(0.7))


def test_null_observer_ignores_everything():
    drive(NULL_OBSERVER)  # must not raise


def test_cli_reporter_throttles_chip_lines():
    stream = io.StringIO()
    drive(CLIProgressReporter(stream=stream, updates_per_batch=4))
    lines = stream.getvalue().splitlines()
    chip_lines = [line for line in lines if "[eval]" in line]
    assert len(chip_lines) == 4
    assert "fig10: done in 0.6s" in stream.getvalue()


def test_cli_reporter_marks_cached_experiments():
    stream = io.StringIO()
    reporter = CLIProgressReporter(stream=stream)
    reporter.handle(ExperimentEnded("fig09", 0.0, True))
    assert "(cached)" in stream.getvalue()


def test_json_metrics_written_at_run_end(tmp_path):
    path = tmp_path / "metrics.json"
    observer = JSONMetricsObserver(path)
    drive(observer)
    record = json.loads(path.read_text())
    assert record["total_elapsed_s"] == 0.7
    (experiment,) = record["experiments"]
    assert experiment["name"] == "fig10"
    assert experiment["cached"] is False
    (batch,) = experiment["batches"]
    assert batch == {"label": "eval", "items": 8, "elapsed_s": 0.5}
    assert "trace_phases" not in record


def test_json_metrics_includes_phase_table_with_tracer(tmp_path):
    from repro.engine.trace import Tracer

    path = tmp_path / "metrics.json"
    tracer = Tracer()
    observer = JSONMetricsObserver(path, tracer=tracer)
    tracer.handle(RunStarted(1))
    drive(observer)
    tracer.handle(RunEnded(0.7))
    # The metrics file was written at RunEnded with whatever the tracer
    # had at that moment; the in-memory record carries the table.
    assert "trace_phases" in observer.metrics
    assert "phases" in observer.metrics["trace_phases"]


def test_json_metrics_counts_robustness_events(tmp_path):
    observer = JSONMetricsObserver(tmp_path / "m.json")
    observer.handle(RunStarted(1))
    observer.handle(TaskRetried("eval", 3, 1, "boom"))
    observer.handle(TaskRetried("eval", 3, 2, "boom"))
    observer.handle(RunEnded(0.1))
    assert observer.metrics["robustness"]["task_retries"] == 2


def test_composite_fans_out_in_order():
    class Recorder:
        def __init__(self):
            self.events = []

        def handle(self, event):
            self.events.append(event)

    first, second = Recorder(), Recorder()
    composite = CompositeObserver([first, second])
    composite.handle(ExperimentStarted("fig06"))
    composite.handle(ExperimentEnded("fig06", 1.0, True))
    expected = [
        ExperimentStarted("fig06"),
        ExperimentEnded("fig06", 1.0, True),
    ]
    assert first.events == expected
    assert second.events == expected
    assert composite.observers == (first, second)


# ----------------------------------------------------------------------
# removed legacy surface
# ----------------------------------------------------------------------


class TestLegacySurfaceRemoved:
    def test_builtins_expose_no_emitter_shims(self):
        reporter = CLIProgressReporter(stream=io.StringIO())
        for consumer in (reporter, JSONMetricsObserver(), NULL_OBSERVER):
            assert not hasattr(consumer, "on_experiment_end")
            assert not hasattr(consumer, "on_chip_done")

    def test_base_handle_ignores_unknown_events(self):
        class Newer(EngineEvent):
            pass

        RunObserver().handle(Newer())  # must not raise

    def test_typed_subscribers_emit_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            stream = io.StringIO()
            drive(CLIProgressReporter(stream=stream))
            drive(JSONMetricsObserver())
            drive(NULL_OBSERVER)
