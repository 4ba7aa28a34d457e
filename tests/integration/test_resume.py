"""Interrupt-then-resume bit-identity: SIGKILL a run, resume, compare.

The headline robustness guarantee: a run killed at an arbitrary point
and restarted with ``--resume`` emits outputs byte-identical to an
uninterrupted run, while restoring (not recomputing) every chip result
that reached the journal.  Exercised end-to-end through the real CLIs
for fig10 (the 100-chip experiment), table3 and fig12 (whose design
points are chip builds of their own).  A SIGKILLed subprocess-fleet
coordinator must also leave no queue directory behind.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

CASES = {
    "fig10_hundred_chips": ["--chips", "3", "--refs", "400"],
    "table3": ["--chips", "4", "--refs", "300"],
    "fig12_sensitivity": ["--chips", "2", "--refs", "300"],
}


def _cli(name, out, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        [
            sys.executable, "-m", f"repro.experiments.{name}",
            *CASES[name], "--no-cache", "--out", str(out), *extra,
        ],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _wait(process, timeout=300):
    assert process.wait(timeout=timeout) == 0


def _kill_once_journal_grows(process, checkpoint_dir, timeout=300):
    """SIGKILL the run as soon as its task store holds a durable entry.

    Returns True if the process was killed mid-run; False if it finished
    first (the store is then complete, and resume restores everything,
    which still exercises the restore path).
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            return False
        if any(checkpoint_dir.glob("results/*/*.result")):
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
            return True
        time.sleep(0.002)
    pytest.fail("journal never appeared before the timeout")


def _outputs(out_dir):
    """Report/CSV bytes, excluding metrics (timing) and engine state."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.is_file() and not path.name.endswith("_metrics.json"):
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_sigkill_then_resume_is_bit_identical(name, tmp_path):
    baseline_dir = tmp_path / "baseline"
    resumed_dir = tmp_path / "resumed"

    _wait(_cli(name, baseline_dir))

    interrupted = _cli(name, resumed_dir)
    killed = _kill_once_journal_grows(
        interrupted, resumed_dir / ".checkpoints"
    )
    if killed:
        assert interrupted.returncode == -signal.SIGKILL
        # A killed run must not have produced the final report.
        assert not (resumed_dir / f"{name}.txt").exists()

    _wait(_cli(name, resumed_dir, extra=["--resume"]))

    assert _outputs(resumed_dir) == _outputs(baseline_dir)
    metrics = json.loads(
        (resumed_dir / f"{name}_metrics.json").read_text()
    )
    # The resumed run restored journalled chip results instead of
    # recomputing them.
    assert metrics["robustness"]["results_resumed"] > 0


def test_seeded_fault_injection_preserves_outputs(tmp_path):
    """A faulty run (crashes, errors, corruption) emits identical bytes."""
    name = "fig10_hundred_chips"
    clean_dir = tmp_path / "clean"
    faulty_dir = tmp_path / "faulty"
    _wait(_cli(name, clean_dir))
    _wait(_cli(
        name, faulty_dir,
        extra=[
            "--workers", "2", "--max-retries", "4",
            "--inject-faults", "seed=7,crash=0.15,error=0.15,corrupt=0.1",
        ],
    ))
    assert _outputs(faulty_dir) == _outputs(clean_dir)


def _fleet_workers(marker):
    """Pids of live fleet workers whose command line names ``marker``."""
    pids = []
    for cmdline in pathlib.Path("/proc").glob("[0-9]*/cmdline"):
        try:
            args = cmdline.read_bytes().decode(errors="replace")
        except OSError:
            continue
        if "repro.service.worker" in args and marker in args:
            pids.append(int(cmdline.parent.name))
    return pids


def test_killed_fleet_coordinator_leaves_no_queue(tmp_path):
    if not pathlib.Path("/proc/self/cmdline").exists():
        pytest.skip("needs /proc")
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["TMPDIR"] = str(tmp_path)  # where the fleet makes its queue
    coordinator = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.run_all",
            "--chips", "2", "--refs", "300", "--no-cache",
            "--backend", "subprocess-fleet", "--fleet-size", "2",
            "--out", str(out),
        ],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    assert _kill_once_journal_grows(coordinator, out / ".checkpoints")
    # The orphaned workers notice the dead coordinator and leave.
    deadline = time.monotonic() + 120
    while _fleet_workers(str(tmp_path)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _fleet_workers(str(tmp_path)) == []
    assert list(tmp_path.glob("repro-fleet-queue-*")) == []
