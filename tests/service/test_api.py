"""The ExecutionService job API: lifecycle, dedupe, recovery, identity.

The experiment used throughout is ``fig10_hundred_chips`` at (or near)
the golden-digest scale pinned by
``tests/experiments/test_golden_outputs.py`` -- small enough for CI,
real enough that byte-identity claims mean something.
"""

import hashlib
import json
import os
import pathlib
import pickle
import time
import warnings

import pytest

from repro.engine.config import EngineConfig, SUBPROCESS_FLEET_BACKEND
from repro.engine.events import (
    BatchStarted,
    ChipCompleted,
    ExperimentEnded,
    ExperimentStarted,
    RunResumed,
)
from repro.errors import ConfigurationError, ExecutionError, JobCancelled
from repro.service import ExecutionService, JobHandle, JobSpec, JobStatus
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    read_status,
    write_status,
)

EXPERIMENT = "fig10_hundred_chips"
#: The golden scale from tests/experiments/test_golden_outputs.py.
GOLDEN_KWARGS = dict(chips=2, refs=800, seed=9)
GOLDEN_FIG10_DIGEST = (
    "c4062ea884fbf9f1d9c5eab4cdd3e5bcefb2bfead5ef447a32e504add7eb8033"
)
#: Smaller-than-golden scale for tests that run several jobs.
SMALL_KWARGS = dict(chips=2, refs=400, seed=9)
#: A one-worker subprocess-fleet engine for service jobs.
FLEET_ENGINE = EngineConfig(
    workers=1, backend=SUBPROCESS_FLEET_BACKEND, fleet_size=1
)


@pytest.fixture
def service(tmp_path):
    svc = ExecutionService(tmp_path / "svc")
    yield svc
    svc.close()


class TestJobSpec:
    def test_round_trips_through_json(self):
        spec = JobSpec(
            experiment=EXPERIMENT, chips=3, refs=500, seed=11,
            geometry="128:2", backend=SUBPROCESS_FLEET_BACKEND,
            fleet_size=2,
        )
        clone = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_unknown_keys_ignored_on_load(self):
        spec = JobSpec.from_dict(
            {"experiment": EXPERIMENT, "future_field": 1}
        )
        assert spec.experiment == EXPERIMENT

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JobSpec(experiment="")
        with pytest.raises(ConfigurationError):
            JobSpec(experiment=EXPERIMENT, chips=0)


#: A fleet job whose six chip builds queue up behind one worker.
FLEET_CANCEL_KWARGS = dict(chips=6, refs=400, seed=9)


def _cancel_after_first_result(handle):
    """Cancel ``handle`` once its first task result is in; its state."""
    for event in handle.events(follow=True):
        if isinstance(event, ChipCompleted):
            handle.cancel()
            break
    return handle.wait(timeout=300).state


class TestSubmitLifecycle:
    def test_submit_runs_to_done(self, service):
        handle = service.submit(EXPERIMENT, **SMALL_KWARGS)
        assert isinstance(handle, JobHandle)
        status = handle.wait(timeout=300)
        assert status.state == DONE
        assert status.experiment == EXPERIMENT
        assert status.cached is False

    def test_unknown_experiment_fails_fast(self, service):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            service.submit("not_an_experiment")

    def test_result_and_report(self, service):
        handle = service.submit(EXPERIMENT, **SMALL_KWARGS)
        result = handle.result(timeout=300)
        assert result is not None
        report = service.report(handle.job_id)
        assert report.startswith("Figure 10")

    def test_events_stream_typed_records(self, service):
        start = time.perf_counter()
        handle = service.submit(EXPERIMENT, **SMALL_KWARGS)
        # The first typed event lands within 30 s of the submit call.
        next(iter(handle.events(follow=True)))
        assert time.perf_counter() - start <= 30.0
        handle.wait(timeout=300)
        events = list(handle.events())
        kinds = [type(e) for e in events]
        assert ExperimentStarted in kinds
        assert BatchStarted in kinds
        assert ChipCompleted in kinds
        assert kinds[-1] is ExperimentEnded
        # Follow-mode terminates once the job is terminal and yields the
        # same (complete) stream.
        followed = list(handle.events(follow=True))
        assert [type(e) for e in followed] == kinds

    def test_jobs_listing(self, service):
        handle = service.submit(EXPERIMENT, **SMALL_KWARGS)
        handle.wait(timeout=300)
        listed = service.jobs()
        assert [s.job_id for s in listed] == [handle.job_id]
        assert listed[0].state == DONE

    def test_status_of_unknown_job_is_an_error(self, service):
        with pytest.raises(ConfigurationError, match="no such job"):
            service.status("job-99999")

    def test_detached_submit_stays_queued(self, service):
        handle = service.submit(EXPERIMENT, start=False, **SMALL_KWARGS)
        assert handle.status().state == QUEUED
        started = service.run_pending()
        assert started == [handle.job_id]
        assert handle.wait(timeout=300).state == DONE

    def test_close_leaves_queued_jobs_for_a_serve_loop(self, tmp_path):
        service = ExecutionService(tmp_path / "svc")
        queued = service.submit(EXPERIMENT, start=False, **SMALL_KWARGS)
        running = service.submit(EXPERIMENT, chips=2, refs=400, seed=10)
        service.close()
        # close() waited for the job it had started and claimed no other.
        assert running.status().state == DONE
        assert queued.status().state == QUEUED


class TestFailureAndCancellation:
    def test_failing_job_reports_failed_with_detail(self, service):
        handle = service.submit(
            EXPERIMENT, technology="unobtainium", **SMALL_KWARGS
        )
        status = handle.wait(timeout=300)
        assert status.state == FAILED
        assert status.detail
        with pytest.raises(ExecutionError):
            handle.result()

    def test_cancel_before_start(self, service):
        handle = service.submit(EXPERIMENT, start=False, **SMALL_KWARGS)
        assert handle.cancel() is True
        service.run_pending()
        status = handle.wait(timeout=60)
        assert status.state == CANCELLED
        with pytest.raises(JobCancelled):
            handle.result()

    def test_cancel_mid_run(self, service):
        handle = service.submit(EXPERIMENT, **GOLDEN_KWARGS)
        # Cancel as soon as the first event lands (the job is mid-run).
        for _ in handle.events(follow=True):
            handle.cancel()
            break
        status = handle.wait(timeout=300)
        assert status.state == CANCELLED

    def test_cancel_mid_run_on_the_fleet(self, tmp_path):
        service = ExecutionService(tmp_path / "svc", engine=FLEET_ENGINE)
        try:
            handle = service.submit(EXPERIMENT, **FLEET_CANCEL_KWARGS)
            assert _cancel_after_first_result(handle) == CANCELLED
            # Its unclaimed tasks left the shared queue at once ...
            assert service._fleets[1].queue.pending_tasks() == []
            # ... while the results it received stay in its journal.
            journal = service.jobs_dir / handle.job_id / "checkpoints"
            assert list(journal.glob("results/*/*.result"))
            after = service.submit(EXPERIMENT, **SMALL_KWARGS)
            assert after.wait(timeout=300).state == DONE
            # The task a worker had claimed when the job was cancelled
            # finished later; the fleet's store did not keep its result.
            fleet = service._fleets[1]
            assert list(fleet.queue_dir.glob("results/*/*")) == []
            assert fleet._orphans == set()
        finally:
            service.close()

    def test_fleet_job_that_cannot_build_its_fleet_fails(self, tmp_path):
        service = ExecutionService(
            tmp_path / "svc", engine=FLEET_ENGINE.replace(task_timeout=5.0)
        )
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                handle = service.submit(EXPERIMENT, **SMALL_KWARGS)
                status = handle.wait(timeout=60)
                service._threads[handle.job_id].join(timeout=60)
            assert status.state == FAILED
            assert "task_timeout is not supported" in status.detail
            assert service._fleets == {}
            # The job closed its event log rather than leaving it to
            # the garbage collector.
            log = str(service.jobs_dir / handle.job_id / "events.jsonl")
            assert not [
                w for w in caught
                if w.category is ResourceWarning and log in str(w.message)
            ]
        finally:
            service.close()

    def test_cancel_after_done_returns_false(self, service):
        handle = service.submit(EXPERIMENT, **SMALL_KWARGS)
        handle.wait(timeout=300)
        assert handle.cancel() is False


class TestFleetWideDedupe:
    def test_second_identical_job_is_a_cache_hit(self, service):
        first = service.submit(EXPERIMENT, **SMALL_KWARGS)
        r1 = first.result(timeout=300)
        second = service.submit(EXPERIMENT, **SMALL_KWARGS)
        status = second.wait(timeout=60)
        assert status.state == DONE
        assert status.cached is True
        assert status.cache_hits > 0
        assert pickle.dumps(second.result()) == pickle.dumps(r1)

    def test_concurrent_identical_jobs_coalesce(self, service):
        handles = [
            service.submit(EXPERIMENT, **SMALL_KWARGS) for _ in range(2)
        ]
        statuses = [h.wait(timeout=300) for h in handles]
        assert all(s.state == DONE for s in statuses)
        # Exactly one job computed; the other was served from the shared
        # sharded cache after in-flight coalescing.
        assert sorted(s.cached for s in statuses) == [False, True]
        payloads = {
            pickle.dumps(h.result(timeout=60)) for h in handles
        }
        assert len(payloads) == 1
        assert service.cache.stats.hits > 0

    def test_different_seeds_do_not_collide(self, service):
        a = service.submit(EXPERIMENT, chips=2, refs=400, seed=9)
        b = service.submit(EXPERIMENT, chips=2, refs=400, seed=10)
        sa, sb = a.wait(timeout=300), b.wait(timeout=300)
        assert (sa.cached, sb.cached) == (False, False)
        assert pickle.dumps(a.result()) != pickle.dumps(b.result())


class TestSharedFleet:
    """Every fleet job of one service runs on one warm worker fleet."""

    def test_fleet_queues_live_under_an_engine_queue_dir(self, tmp_path):
        queue_dir = tmp_path / "queue"
        service = ExecutionService(
            tmp_path / "svc", engine=FLEET_ENGINE.replace(queue_dir=queue_dir)
        )
        try:
            fleet = service._fleet_for(service.engine_template)
            assert fleet.queue_dir.parent == queue_dir
        finally:
            service.close()
        assert list(queue_dir.iterdir()) == []

    def test_building_the_service_starts_no_process(
        self, tmp_path, child_pids
    ):
        before = child_pids()
        service = ExecutionService(
            tmp_path / "svc", engine=FLEET_ENGINE.replace(fleet_size=2)
        )
        assert service.jobs() == []
        assert child_pids() == before
        service.close()

    def test_sequential_jobs_share_one_warm_fleet(self, tmp_path):
        service = ExecutionService(
            tmp_path / "svc", engine=FLEET_ENGINE.replace(fleet_size=2)
        )
        try:
            pids = []
            for seed in (9, 10, 11):
                handle = service.submit(
                    EXPERIMENT, chips=2, refs=400, seed=seed
                )
                assert handle.wait(timeout=300).state == DONE
                fleet = service._fleets[2]
                pids.append({p.pid for p in fleet._workers.values()})
                # The job journal holds the results; the fleet's store
                # keeps none of them between jobs.
                assert fleet.queue.results._entries == {}
                assert list(fleet.queue_dir.glob("results/*/*")) == []
            # Two workers served all three jobs: none was respawned.
            assert fleet.spawned == 2
            assert pids[0] == pids[1] == pids[2]
            workers = list(fleet._workers.values())
        finally:
            service.close()
        assert all(process.poll() is not None for process in workers)
        assert service._fleets == {}

    def test_concurrent_fleet_jobs_match_the_local_backend(self, tmp_path):
        seeds = (9, 10)
        with ExecutionService(tmp_path / "local") as local:
            expected = {
                seed: pickle.dumps(local.submit(
                    EXPERIMENT, chips=2, refs=400, seed=seed
                ).result(timeout=300))
                for seed in seeds
            }
        service = ExecutionService(
            tmp_path / "fleet", engine=FLEET_ENGINE.replace(fleet_size=2)
        )
        try:
            handles = {
                seed: service.submit(
                    EXPERIMENT, chips=2, refs=400, seed=seed
                )
                for seed in seeds
            }
            for seed, handle in handles.items():
                assert pickle.dumps(handle.result(timeout=600)) == (
                    expected[seed]
                )
            assert service._fleets[2].spawned == 2
        finally:
            service.close()


class TestCrashRecovery:
    def test_recover_restarts_jobs_with_dead_claims(self, service):
        handle = service.submit(EXPERIMENT, start=False, **SMALL_KWARGS)
        job_dir = service.jobs_dir / handle.job_id
        # Simulate a service process that died mid-job: RUNNING status
        # plus a claim held by a pid that no longer exists.
        write_status(job_dir, JobStatus(
            job_id=handle.job_id, state=RUNNING, experiment=EXPERIMENT,
        ))
        (job_dir / "claim").write_text("999999999")
        restarted = service.recover()
        assert restarted == [handle.job_id]
        status = handle.wait(timeout=300)
        assert status.state == DONE

    def test_recover_resumes_from_the_job_journal(self, service, tmp_path):
        handle = service.submit(EXPERIMENT, **GOLDEN_KWARGS)
        # Stop the first run mid-flight, leaving journalled chips behind.
        for _ in handle.events(follow=True):
            handle.cancel()
            break
        handle.wait(timeout=300)

        # "Restart" the interrupted job: clear the cancel marker, mark it
        # as abandoned by a dead process, and recover.  The re-run
        # restores journalled chips with resume=True.
        job_dir = service.jobs_dir / handle.job_id
        if (job_dir / "cancel").exists():
            (job_dir / "cancel").unlink()
        write_status(job_dir, JobStatus(
            job_id=handle.job_id, state=RUNNING, experiment=EXPERIMENT,
        ))
        (job_dir / "claim").write_text("999999999")
        restarted = service.recover()
        assert restarted == [handle.job_id]
        assert handle.wait(timeout=300).state == DONE

        # The recovered result is byte-identical to an uninterrupted run
        # of the same spec in an unrelated service root (separate cache,
        # so no dedupe shortcut hides a resume bug).
        fresh = ExecutionService(tmp_path / "fresh-svc")
        uninterrupted = fresh.submit(
            EXPERIMENT, **GOLDEN_KWARGS
        ).result(timeout=300)
        fresh.close()
        assert (
            pickle.dumps(handle.result()) == pickle.dumps(uninterrupted)
        )

    def test_recover_resumes_a_fleet_job_from_its_journal(self, tmp_path):
        service = ExecutionService(tmp_path / "svc", engine=FLEET_ENGINE)
        try:
            handle = service.submit(EXPERIMENT, **FLEET_CANCEL_KWARGS)
            assert _cancel_after_first_result(handle) == CANCELLED
            job_dir = service.jobs_dir / handle.job_id
            (job_dir / "cancel").unlink()
            write_status(job_dir, JobStatus(
                job_id=handle.job_id, state=RUNNING, experiment=EXPERIMENT,
            ))
            (job_dir / "claim").write_text("999999999")
            assert service.recover() == [handle.job_id]
            recovered = handle.result(timeout=300)
            # The coordinator journalled what the fleet computed, and the
            # re-run restored it.
            assert any(isinstance(e, RunResumed) for e in handle.events())
        finally:
            service.close()
        with ExecutionService(tmp_path / "local") as local:
            expected = local.submit(
                EXPERIMENT, **FLEET_CANCEL_KWARGS
            ).result(timeout=300)
        assert pickle.dumps(recovered) == pickle.dumps(expected)

    def test_recover_skips_live_and_terminal_jobs(self, service):
        done = service.submit(EXPERIMENT, **SMALL_KWARGS)
        done.wait(timeout=300)
        live = service.submit(EXPERIMENT, start=False, **SMALL_KWARGS)
        job_dir = service.jobs_dir / live.job_id
        write_status(job_dir, JobStatus(
            job_id=live.job_id, state=RUNNING, experiment=EXPERIMENT,
        ))
        # Pid 1 is always alive and never this process: a live foreign
        # claim that recover() must respect.
        (job_dir / "claim").write_text("1")
        assert service.recover() == []
        (job_dir / "claim").unlink()


class TestBackendIdentity:
    def test_local_backend_matches_golden_digest(self, service):
        handle = service.submit(EXPERIMENT, **GOLDEN_KWARGS)
        handle.wait(timeout=600)
        report = service.report(handle.job_id)
        digest = hashlib.sha256(
            report[:-1].encode()  # report.txt appends one newline
        ).hexdigest()
        assert digest == GOLDEN_FIG10_DIGEST

    def test_subprocess_fleet_backend_is_byte_identical(self, service):
        local = service.submit(EXPERIMENT, **SMALL_KWARGS)
        local_result = local.result(timeout=300)
        fleet_svc = ExecutionService(
            service.root.parent / "fleet-svc"
        )
        fleet = fleet_svc.submit(
            EXPERIMENT,
            backend=SUBPROCESS_FLEET_BACKEND,
            workers=2,
            fleet_size=2,
            **SMALL_KWARGS,
        )
        status = fleet.wait(timeout=600)
        assert status.state == DONE, status.detail
        fleet_result = fleet.result()
        fleet_svc.close()
        assert (
            pickle.dumps(fleet_result) == pickle.dumps(local_result)
        )


class TestGeometrySpecs:
    def test_geometry_spec_round_trips(self, service):
        handle = service.submit(
            EXPERIMENT, geometry="128:2", **SMALL_KWARGS
        )
        status = handle.wait(timeout=300)
        assert status.state == DONE, status.detail

    def test_bad_geometry_spec_is_a_configuration_error(self, service):
        handle = service.submit(
            EXPERIMENT, geometry="not-a-spec", **SMALL_KWARGS
        )
        status = handle.wait(timeout=60)
        assert status.state == FAILED
        assert "geometry" in status.detail


class TestNoDeprecationWarnings:
    def test_import_and_full_run_emit_no_deprecation_warnings(
        self, tmp_path
    ):
        """Satellite of the legacy-shim removals: the whole stack --
        facade import, service submission, full fig10 run -- is warning
        free now that the ``on_*`` observer shims and the L2 geometry
        scalars are gone."""
        import subprocess
        import sys

        script = (
            "import warnings\n"
            "warnings.simplefilter('error', DeprecationWarning)\n"
            "import repro\n"
            "from repro.service import ExecutionService\n"
            "import pathlib\n"
            f"svc = ExecutionService(pathlib.Path({str(tmp_path)!r}))\n"
            "h = svc.submit('fig10_hundred_chips', chips=2, refs=400,"
            " seed=9)\n"
            "assert h.wait(timeout=300).state == 'done'\n"
            "svc.close()\n"
        )
        repo = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(repo / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             "-c", script],
            capture_output=True, text=True, env=env, cwd=repo,
        )
        assert proc.returncode == 0, proc.stderr
