"""The durable task queue: claims, results, dedupe, requeue."""

import shutil

import pytest

from repro.errors import ConfigurationError
from repro.engine.checkpoint import RunJournal
from repro.service.queue import DurableTaskQueue, ERROR, OK, TaskEnvelope
from repro.variation import harmonic_mean


def envelope(task):
    return TaskEnvelope.for_call(harmonic_mean, task)


class TestTaskEnvelope:
    def test_for_call_records_module_and_qualname(self):
        env = envelope([1.0, 2.0])
        assert env.fn_module == harmonic_mean.__module__
        assert env.fn_qualname == "harmonic_mean"
        assert env.task == [1.0, 2.0]

    def test_rejects_lambdas_and_locals(self):
        with pytest.raises(ConfigurationError, match="module-level"):
            TaskEnvelope.for_call(lambda x: x, 1)

        def local_fn(x):
            return x

        with pytest.raises(ConfigurationError, match="module-level"):
            TaskEnvelope.for_call(local_fn, 1)

    def test_rejects_main_module_functions(self):
        def fake(x):
            return x

        fake.__module__ = "__main__"
        fake.__qualname__ = "fake"
        with pytest.raises(ConfigurationError, match="module-level"):
            TaskEnvelope.for_call(fake, 1)


class TestEnqueueClaimComplete:
    def test_round_trip(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        assert queue.enqueue("k1", envelope([1.0, 2.0]))
        claimed = queue.claim("w0")
        assert claimed is not None
        key, env = claimed
        assert key == "k1"
        assert env.task == [1.0, 2.0]
        queue.complete("w0", "k1", OK, 42.0)
        # OK results land in the queue root's task store.
        assert RunJournal(tmp_path / "q", resume=True).get("k1") == 42.0
        # The claim was released after the result landed.
        assert not queue.claim_path("w0", "k1").exists()

    def test_enqueue_dedupes_against_pending_tasks(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        assert queue.enqueue("k1", envelope([1.0])) is True
        assert queue.enqueue("k1", envelope([1.0])) is False
        assert queue.pending_tasks() == ["k1"]

    def test_enqueue_dedupes_against_completed_results(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        queue.enqueue("k1", envelope([1.0]))
        key, _ = queue.claim("w0")
        queue.complete("w0", key, OK, 7.0)
        # Fleet-wide dedupe: a finished key never re-enters the queue.
        assert queue.enqueue("k1", envelope([1.0])) is False
        assert queue.pending_tasks() == []

    def test_claim_returns_none_on_empty_queue(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        assert queue.claim("w0") is None

    def test_claims_are_exclusive(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        queue.enqueue("k1", envelope([1.0]))
        assert queue.claim("w0") is not None
        assert queue.claim("w1") is None

    def test_error_results_round_trip(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        queue.enqueue("k1", envelope([1.0]))
        key, _ = queue.claim("w0")
        queue.complete("w0", key, ERROR, "ValueError: boom")
        assert "k1" not in queue.results
        assert not queue.results.entry_path("k1").exists()
        # A failure is consumed once.
        assert queue.take_failure("k1") == "ValueError: boom"
        assert queue.take_failure("k1") is None

    @pytest.mark.parametrize("status,value", [(OK, 1.5), (ERROR, "boom")])
    def test_outcome_into_a_removed_root_is_written(
        self, tmp_path, status, value
    ):
        # A worker still finishing a task after another orphaned worker
        # removed the queue must not crash on its outcome.
        queue = DurableTaskQueue(tmp_path / "q")
        queue.enqueue("k1", envelope([1.0]))
        key, _ = queue.claim("w0")
        shutil.rmtree(tmp_path / "q")
        queue.complete("w0", key, status, value)
        if status == OK:
            assert queue.results.load("k1") == 1.5
        else:
            assert queue.take_failure("k1") == "boom"

    def test_unreadable_result_is_a_miss(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        path = queue.results.entry_path("k1")
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert "k1" not in RunJournal(tmp_path / "q", resume=True)

    def test_unreadable_task_completes_with_error(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        queue.task_path("kbad").write_bytes(b"garbage")
        assert queue.claim("w0") is None
        assert queue.take_failure("kbad") == "unreadable envelope"


class TestRequeueAndStop:
    def test_requeue_worker_restores_claims(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        queue.enqueue("k1", envelope([1.0]))
        queue.enqueue("k2", envelope([2.0]))
        queue.claim("w0")
        queue.claim("w0")
        assert queue.pending_tasks() == []
        requeued = queue.requeue_worker("w0")
        assert sorted(requeued) == ["k1", "k2"]
        assert queue.pending_tasks() == ["k1", "k2"]

    def test_requeue_skips_completed_keys(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        queue.enqueue("k1", envelope([1.0]))
        key, _ = queue.claim("w0")
        # Result written but claim never released (worker died between):
        # the stale claim must not resurrect finished work.
        queue.results.record(key, 1.5)
        requeued = queue.requeue_worker("w0")
        assert requeued == []
        assert queue.pending_tasks() == []

    def test_stop_sentinel(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q")
        assert not queue.stop_requested()
        queue.request_stop()
        assert queue.stop_requested()
