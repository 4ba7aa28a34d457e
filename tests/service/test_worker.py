"""The persistent worker loop, driven in-process via ``max_tasks``."""

import os

import pytest

from repro.errors import ConfigurationError
from repro.engine.checkpoint import RunJournal
from repro.service.queue import DurableTaskQueue, TaskEnvelope
from repro.service.worker import resolve_function, serve
from repro.variation import harmonic_mean


class TestResolveFunction:
    def test_resolves_module_level_callable(self):
        fn = resolve_function("repro.variation", "harmonic_mean")
        assert fn is harmonic_mean

    def test_resolves_dotted_qualnames(self):
        fn = resolve_function("repro.service.queue", "TaskEnvelope.for_call")
        assert fn == TaskEnvelope.for_call

    def test_non_callable_is_an_error(self):
        with pytest.raises(ConfigurationError, match="non-callable"):
            resolve_function("repro.service.queue", "OK")


class TestServe:
    def test_executes_claimed_tasks(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        queue.enqueue("k1", TaskEnvelope.for_call(harmonic_mean, [2.0, 2.0]))
        queue.enqueue("k2", TaskEnvelope.for_call(harmonic_mean, [4.0, 4.0]))
        executed = serve(tmp_path / "q", "w0", max_tasks=2)
        assert executed == 2
        assert queue.results.load("k1") == 2.0
        assert queue.results.load("k2") == 4.0

    def test_task_exceptions_become_error_results(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        queue.enqueue(
            "kbad", TaskEnvelope.for_call(harmonic_mean, "not numbers")
        )
        executed = serve(tmp_path / "q", "w0", max_tasks=1)
        assert executed == 1
        assert "kbad" not in RunJournal(tmp_path / "q", resume=True)
        assert queue.take_failure("kbad")  # the exception text survives

    def test_unresolvable_function_becomes_error_result(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        queue.enqueue(
            "kmissing",
            TaskEnvelope("repro.variation", "no_such_function", 1),
        )
        serve(tmp_path / "q", "w0", max_tasks=1)
        assert "no_such_function" in queue.take_failure("kmissing")

    def test_stop_sentinel_ends_the_loop(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        queue.enqueue("k1", TaskEnvelope.for_call(harmonic_mean, [1.0]))
        queue.request_stop()
        executed = serve(tmp_path / "q", "w0", max_tasks=5)
        assert executed == 0
        assert queue.pending_tasks() == ["k1"]

    def test_dead_parent_ends_the_loop(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        queue.enqueue("k1", TaskEnvelope.for_call(harmonic_mean, [1.0]))
        # A pid that cannot be a live parent of this test.
        executed = serve(
            tmp_path / "q", "w0", parent_pid=2 ** 22 + 1, max_tasks=5
        )
        assert executed == 0
        # Only the dead parent could read the queue: the worker removes it.
        assert not (tmp_path / "q").exists()

    def test_live_parent_keeps_the_queue(self, tmp_path):
        DurableTaskQueue(tmp_path / "q").request_stop()
        serve(tmp_path / "q", "w0", parent_pid=os.getpid(), max_tasks=5)
        assert (tmp_path / "q" / "stop").exists()
