"""The task store: durable entries, the trust rule, kill points, keys."""

import gc
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

import repro
from repro.engine.checkpoint import RunJournal, task_key
from repro.engine.config import EngineConfig
from repro.engine.parallel import ParallelChipRunner
from repro.variation import harmonic_mean


def _double(x):
    return 2 * x


def _triple(x):
    return 3 * x


class TestTaskKey:
    def test_stable_across_calls(self):
        assert task_key(_double, (1, 2.5, "a")) == task_key(_double, (1, 2.5, "a"))

    def test_distinguishes_payloads(self):
        assert task_key(_double, 1) != task_key(_double, 2)

    def test_distinguishes_functions(self):
        assert task_key(_double, 1) != task_key(_triple, 1)

    def test_identity_insensitive(self):
        # The same value appearing once vs. twice as the same object must
        # not change the key: a journal written by a fresh run has to hit
        # when the payload was rebuilt from restored (unpickled) parts.
        shared = (1.0, 2.0, 3.0)
        copied = pickle.loads(pickle.dumps(shared))
        assert shared == copied and shared is not copied
        assert task_key(_double, (shared, shared)) == task_key(
            _double, (shared, copied)
        )


class TestRunJournalRoundTrip:
    def test_record_and_reload(self, tmp_path):
        journal = RunJournal(tmp_path)
        assert journal.record("k1", {"a": 1}) is True
        assert journal.record("k2", [1, 2, 3]) is True
        assert "k1" in journal and "k2" in journal
        assert journal.get("k1") == {"a": 1}
        resumed = RunJournal(tmp_path, resume=True)
        assert "k1" in resumed and "k2" in resumed
        assert resumed.get("k2") == [1, 2, 3]

    def test_duplicate_record_is_noop(self, tmp_path):
        journal = RunJournal(tmp_path)
        assert journal.record("k", 1) is True
        entry = journal.entry_path("k").read_bytes()
        assert journal.record("k", 2) is False
        assert journal.get("k") == 1
        assert journal.entry_path("k").read_bytes() == entry
        assert RunJournal(tmp_path, resume=True).get("k") == 1

    def test_fresh_open_trusts_only_its_own_records(self, tmp_path):
        RunJournal(tmp_path).record("k", 1)
        fresh = RunJournal(tmp_path, resume=False)
        assert "k" not in fresh
        assert fresh.get("k") is None
        # Its own write replaces the older entry ...
        assert fresh.record("k", 2) is True
        assert fresh.get("k") == 2
        # ... and is what a later resume restores.
        assert RunJournal(tmp_path, resume=True).get("k") == 2

    def test_missing_key_default(self, tmp_path):
        journal = RunJournal(tmp_path, resume=True)
        assert journal.get("absent") is None
        assert journal.get("absent", 7) == 7

    def test_recorded_value_is_not_retained(self, tmp_path):
        # The journal keeps trusted keys, not values: the entry on disk
        # is the one copy, and ``get`` reads it back.
        journal = RunJournal(tmp_path)
        value = np.arange(1000.0)
        alive = weakref.ref(value)
        assert journal.record("k", value) is True
        del value
        gc.collect()
        assert alive() is None
        assert "k" in journal
        assert np.array_equal(journal.get("k"), np.arange(1000.0))


KEY = "ab" + "0" * 62


class TestEntryFiles:
    def test_entries_are_sharded_by_key_prefix(self, tmp_path):
        RunJournal(tmp_path).record(KEY, 1.5)
        entry = tmp_path / "results" / "ab" / f"{KEY}.result"
        assert sorted(tmp_path.rglob("*")) == [
            tmp_path / "results", entry.parent, entry,
        ]

    @pytest.mark.parametrize("damage", [
        lambda data: data[:-1],                  # truncated
        lambda data: data[:20] + b"\xff" + data[21:],  # flipped byte
        lambda data: b"",                        # empty
        lambda data: b"not an entry at all",     # garbage
        # A well-formed pickle under a digest that does not match it.
        lambda data: data[:16] + pickle.dumps((KEY, 2.5)),
    ])
    def test_damaged_entry_is_a_miss_and_gets_rewritten(
        self, tmp_path, damage
    ):
        RunJournal(tmp_path).record(KEY, 1.5)
        path = RunJournal(tmp_path).entry_path(KEY)
        path.write_bytes(damage(path.read_bytes()))
        journal = RunJournal(tmp_path, resume=True)
        assert KEY not in journal
        assert journal.record(KEY, 1.5) is True
        assert RunJournal(tmp_path, resume=True).get(KEY) == 1.5

    def test_entry_under_the_wrong_name_is_a_miss(self, tmp_path):
        other = "ab" + "1" * 62
        journal = RunJournal(tmp_path)
        journal.record(KEY, 1.5)
        os.replace(journal.entry_path(KEY), journal.entry_path(other))
        assert other not in RunJournal(tmp_path, resume=True)

    def test_tmp_file_never_reads_as_an_entry(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.record(KEY, 1.5)
        path = journal.entry_path(KEY)
        # A complete entry that never got renamed into place.
        tmp = path.with_name(path.name + ".x1y2.tmp")
        os.replace(path, tmp)
        assert KEY not in RunJournal(tmp_path, resume=True)

    def test_discard_drops_the_entry(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.record(KEY, 1.5)
        journal.discard(KEY)
        journal.discard(KEY)  # idempotent
        assert KEY not in journal
        assert not journal.entry_path(KEY).exists()

    def test_record_rewrites_an_entry_removed_behind_its_back(self, tmp_path):
        # A fleet worker's store outlives the coordinator's discard of
        # an entry it wrote; recomputing the key must write it again.
        worker = RunJournal(tmp_path)
        worker.record(KEY, 1.5)
        RunJournal(tmp_path).discard(KEY)
        assert worker.record(KEY, 1.5) is True
        assert RunJournal(tmp_path, resume=True).get(KEY) == 1.5


# ----------------------------------------------------------------------
# Kill points: SIGKILL a runner while it records its third entry.

TASKS = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [2.0, 9.0], [7.0, 8.0]]
VICTIM = 2  # the write (0-based) the child dies in

KILL_CHILD = textwrap.dedent(
    """
    import ast, os, signal, sys, tempfile
    from repro.engine.config import EngineConfig
    from repro.engine.parallel import ParallelChipRunner
    from repro.variation import harmonic_mean

    point, victim, root, tasks = sys.argv[1], int(sys.argv[2]), \\
        sys.argv[3], ast.literal_eval(sys.argv[4])
    state = {"write": -1, "fsyncs": 0}
    real_mkstemp, real_fsync, real_replace = (
        tempfile.mkstemp, os.fsync, os.replace
    )

    def die_at(here):
        if state["write"] == victim and point == here:
            os.kill(os.getpid(), signal.SIGKILL)

    def mkstemp(*args, **kwargs):
        state["write"] += 1
        state["fsyncs"] = 0
        die_at("before-temp-write")
        return real_mkstemp(*args, **kwargs)

    def fsync(fd):
        state["fsyncs"] += 1
        die_at(("before-fsync", "before-dir-fsync")[state["fsyncs"] - 1])
        real_fsync(fd)
        if state["fsyncs"] == 2:
            die_at("after-dir-fsync")

    def replace(src, dst):
        die_at("before-rename")
        real_replace(src, dst)

    tempfile.mkstemp, os.fsync, os.replace = mkstemp, fsync, replace
    runner = ParallelChipRunner(EngineConfig(workers=1, checkpoint_dir=root))
    runner.map(harmonic_mean, tasks)
    """
)

#: Kill point -> (entries renamed into place, temp files left behind).
KILL_POINTS = {
    "before-temp-write": (VICTIM, 0),
    "before-fsync": (VICTIM, 1),
    "before-rename": (VICTIM, 1),
    "before-dir-fsync": (VICTIM + 1, 0),
    "after-dir-fsync": (VICTIM + 1, 0),
}


def _child_env():
    env = dict(os.environ)
    package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else os.pathsep.join([package_root, existing])
    )
    return env


@pytest.mark.parametrize("point", sorted(KILL_POINTS))
def test_sigkill_at_each_write_point_then_resume(point, tmp_path):
    root = tmp_path / "ckpt"
    child = subprocess.run(
        [sys.executable, "-c", KILL_CHILD, point, str(VICTIM), str(root),
         repr(TASKS)],
        env=_child_env(), capture_output=True, timeout=120,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr.decode()
    renamed, temp_files = KILL_POINTS[point]
    assert len(list(root.rglob("*.result"))) == renamed
    leftovers = list(root.rglob("*.tmp"))
    assert len(leftovers) == temp_files

    with ParallelChipRunner(
        EngineConfig(workers=1, checkpoint_dir=root, resume=True)
    ) as runner:
        resumed = runner.map(harmonic_mean, TASKS)
    assert runner.stats.results_resumed == renamed
    assert runner.stats.results_checkpointed == len(TASKS) - renamed
    with ParallelChipRunner(EngineConfig(workers=1)) as runner:
        uninterrupted = runner.map(harmonic_mean, TASKS)
    assert pickle.dumps(resumed) == pickle.dumps(uninterrupted)
    assert len(list(root.rglob("*.result"))) == len(TASKS)
    # The leftover temp file is never read, renamed or counted.
    assert list(root.rglob("*.tmp")) == leftovers
