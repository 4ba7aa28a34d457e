"""The repository benchmark: simulator host time on three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload geomsweep --seed 2007 \
        --seconds 30 --trace 0

Each run repeats the workload body, one fresh process per round
(``rounds.py``), for at least the workload's fixed number of untraced
rounds and until ``--seconds`` have passed, measuring set-up
``SETUP_REPEATS`` times in between, checks every output, writes a record
under ``.perfbench-out/`` and prints one JSON result as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (rounds alternate traced and untraced, so the same run also
gives the tracing overhead).  The exit code is 1 when any output check
fails and 2 when the checkout has no ``src/repro`` package to measure.
See README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import layers

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 2007
"""The seed the benchmark is tuned and reported on."""
HELDOUT_SEED = 4242
"""Kept out of tuning; a change's claim must hold on it too."""

SETUP_REPEATS = 12
"""Set-up samples of an untraced run, spread over its first rounds."""
CHILD_TIMEOUT_S = 150.0
UNATTRIBUTED_LIMIT = 0.10
"""Largest share of traced wall time the serial workloads may leave
outside every wrapped layer."""

#: ``rounds`` is the fixed number of untraced rounds the end-to-end
#: estimates are taken over, the same on every commit, so that faster
#: code does not earn more samples and a lower floor.
SCALES: Dict[str, dict] = {
    # 1 chip (geomsweep's n_chips/4 policy) on 72 of the 540 cells: every
    # scheme, both variation severities the report reads, the smallest,
    # paper and largest sizes, both banking extremes, direct-mapped and
    # paper associativity.
    "geomsweep": {
        "chips": 4, "refs": 200, "rounds": 6,
        "grid": {
            "sizes_kb": [16, 64, 256], "banks_sweep": [2, 8],
            "ways_sweep": [1, 4], "severities": ["typical", "severe"],
        },
    },
    # The smallest scale every paper driver accepts; fig12 and table3
    # sample their own chips, so most of a round is fixed cost.
    "paper_drivers": {"chips": 1, "refs": 300, "rounds": 3},
    "service_fleet": {
        "experiment": "fig10_hundred_chips", "chips": 2, "refs": 400,
        "jobs": 6, "fleet_size": min(2, os.cpu_count() or 1), "rounds": 5,
    },
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "sim_refs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer shares of traced wall time; core.event.replay is covered by
#: the event_replays count, which must stay 0.
SHARE_LAYERS = tuple(l for l in layers.LAYERS if l != "core.event.replay")
PER_LAYER_UNITS = {
    **{f"{layer}_pct": "%" for layer in SHARE_LAYERS},
    "unattributed_pct": "%",
    "tracing_overhead_pct": "%",
    **{key: "count" for key in layers.COUNT_KEYS},
    "engine.parallel.retries": "count",
    "core.batcheval.flattened_replays": "count",
    "core.batcheval.flattened_refs": "count",
    "core.timeline.replays": "count",
    "core.timeline.refs": "count",
    "core.batcheval.event_replays": "count",
    "core.sim.refs": "count",
    **{f"core.sim.{key}": "count" for key, _ in layers.SIM_FIELDS},
    "core.batcheval.fast_path_coverage": "ratio",
    "engine.cache.hit_ratio": "ratio",
}


class ChildFailed(RuntimeError):
    """A measured process exited with an error or timed out."""


def run_child(spec: dict, work: pathlib.Path, name: str) -> dict:
    """Run ``rounds.py`` on ``spec`` in a fresh process; its result."""
    work.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, work=str(work / name), result=str(work / f"{name}.json"))
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "rounds.py"), str(spec_path)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{name}: no result after {CHILD_TIMEOUT_S:g}s")
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-5:]
        raise ChildFailed(f"{name}: exit {done.returncode}: " + " | ".join(tail))
    result = json.loads(pathlib.Path(spec["result"]).read_text())
    shutil.rmtree(spec["work"], ignore_errors=True)
    return result


def tail(samples: List[float]) -> dict:
    """The highest of p99/p95/p90/p75/p50 with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99, 95, 90, 75, 50):
        rank = math.ceil(n * pct / 100)
        if n - rank >= 10:
            return {"pct": pct, "value": ordered[rank - 1], "n": n}
    return {"pct": None, "value": None, "n": n}


def median(values) -> float:
    return statistics.median(list(values))


def floor_sum(totals: List[float], units: List[List[float]]) -> float:
    """Each unit's fastest round, summed, plus the fastest remainder.

    ``totals[r]`` is round ``r``'s whole body and ``units[r]`` its units
    of work in call order, the same units in every round of a seed.
    """
    if len({len(parts) for parts in units}) != 1:
        raise ValueError("rounds made different numbers of units: "
                         f"{[len(parts) for parts in units]}")
    rest = min(total - sum(parts) for total, parts in zip(totals, units))
    return sum(min(samples) for samples in zip(*units)) + rest


def estimated_rounds(workload: str, rounds: List[dict]) -> List[dict]:
    """The untraced rounds the end-to-end estimates use: the first
    ``SCALES[workload]["rounds"]``, however many the window held."""
    plain = [r for r in rounds if not r["traced"]]
    return plain[:SCALES[workload]["rounds"]]


def end_to_end(setups: List[float], plain: List[dict],
               reference: Optional[dict]) -> Dict[str, float]:
    """The user-facing metrics over a fixed number of untraced rounds.

    On a shared 2-core host, neighbours slow whole rounds by 20-40 % for
    seconds to minutes, yet short pieces of work still slip through at
    full speed.  So the serial workloads time every chip draw, trace
    generation and replay (``layers.UnitTimer``) and sum each one's
    fastest round plus the fastest remainder of the body; the service
    does the same with each job's submit-to-DONE time (the same specs in
    every round).  Its CPU time is spent in fleet workers whose time
    reaches ``getrusage`` only when they are reaped, so no job's share is
    known and ``cpu_s`` takes the fastest round.  Set-up takes its
    fastest sample; the samples are spread over the rounds so that one
    slow stretch does not hold all of them.
    """
    if reference is None:
        wall = floor_sum([r["wall_s"] for r in plain],
                         [r["unit_wall"] for r in plain])
        cpu = floor_sum([r["cpu_s"] for r in plain],
                        [r["unit_cpu"] for r in plain])
        refs = plain[0]["sim"]["core.sim.refs"]
    else:
        wall = floor_sum([r["wall_s"] for r in plain],
                         [r["jobs"] + r["hits"] for r in plain])
        cpu = min(r["cpu_s"] for r in plain)
        refs = sum(entry["refs"] for entry in reference.values())
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": min(setups),
        "sim_refs_per_s": refs / wall,
        "peak_rss_mb": median(r["peak_rss_kb"] / 1024 for r in plain),
    }


def per_layer(rounds: List[dict]) -> Dict[str, float]:
    """Shares of traced wall time, counts and ratios from traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out: Dict[str, float] = {}
    for layer in SHARE_LAYERS + ("unattributed",):
        key = f"{layer}_s"
        out[f"{layer}_pct"] = median(
            r["layers"][key] / r["wall_s"] * 100 for r in traced
        )
    out["tracing_overhead_pct"] = (
        median(r["wall_s"] for r in traced)
        / median(r["wall_s"] for r in plain) - 1
    ) * 100
    first = traced[0]["layers"]
    for key, unit in PER_LAYER_UNITS.items():
        if unit != "%":
            out[key] = first[key]
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def check(workload: str, seed: int, rounds: List[dict],
          reference: Optional[dict], golden: dict) -> List[str]:
    """Every reason the outputs or the measurement cannot be trusted
    (empty when correct)."""
    problems: List[str] = []
    serial = workload != "service_fleet"
    for index, r in enumerate(rounds):
        problems += [f"round {index}: {f}" for f in r["failures"]]
        problems += [f"round {index}: {m} not wrapped (renamed or removed)"
                     for m in r["missing_targets"]]
        if serial and r["traced"]:
            share = r["layers"]["unattributed_s"] / r["wall_s"]
            if share > UNATTRIBUTED_LIMIT:
                problems.append(
                    f"round {index}: unattributed {share:.1%} of traced wall "
                    f"time, over {UNATTRIBUTED_LIMIT:.0%}"
                )
        problems += [f"round {index}: spot check {m} differs from the "
                     "event controller" for m in r["spot_mismatches"]]
        if r["sim"]["core.batcheval.event_replays"]:
            problems.append(f"round {index}: event-controller replays")
        if r["digests"] != rounds[0]["digests"]:
            problems.append(f"round {index}: outputs differ from round 0")
        if r["sim"] != rounds[0]["sim"]:
            problems.append(f"round {index}: core.sim counts differ")
    digests = rounds[0]["digests"]
    for name, digest in digests.items():
        phase, rest = name.split("/", 1)
        if phase == "hit" and digests.get(f"cold/{rest}") != digest:
            problems.append(f"{rest}: cached re-run differs from the cold run")
    if reference is not None:
        for job_seed, expected in reference.items():
            for name in ("result.pkl", "report.txt"):
                if digests.get(f"cold/{job_seed}/{name}") != expected[name]:
                    problems.append(
                        f"job seed {job_seed}: fleet {name} differs from "
                        "the local-backend run"
                    )
    expected = golden.get(workload, {}).get(str(seed))
    if expected is not None:
        cold = {k: v for k, v in digests.items() if k.startswith("cold/")}
        if cold != expected["outputs"]:
            problems.append(f"outputs differ from the golden digests of "
                            f"seed {seed}")
        if rounds[0]["sim"] != expected["sim"]:
            problems.append(f"core.sim counts differ from the golden "
                            f"counts of seed {seed}")
    return problems


def machine_facts() -> dict:
    import numpy

    model = platform.processor()
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def measure(args, work: pathlib.Path) -> dict:
    """Set-up samples, timed rounds and the reference run of one run."""
    base = {"workload": args.workload, "seed": args.seed,
            "scale": SCALES[args.workload]}
    setups: List[float] = []
    rounds: List[dict] = []
    # Untraced runs need the fixed number of rounds the estimates use;
    # traced runs one traced and one untraced round.
    needed = 2 if args.trace else SCALES[args.workload]["rounds"]
    setups_per_round = 0 if args.trace else math.ceil(SETUP_REPEATS / needed)
    start = time.perf_counter()
    while True:
        while len(setups) < min(SETUP_REPEATS,
                                setups_per_round * (len(rounds) + 1)):
            setups.append(run_child(dict(base, mode="setup"), work,
                                    f"setup{len(setups)}")["setup_s"])
        # Traced runs alternate traced and untraced rounds, traced first.
        traced = bool(args.trace) and len(rounds) % 2 == 0
        rounds.append(run_child(
            dict(base, mode="round", traced=traced), work,
            f"round{len(rounds)}",
        ))
        elapsed = time.perf_counter() - start
        # Then stop when another round would overrun the window by more
        # than half a round.
        if (len(rounds) >= needed
                and elapsed * (1 + 0.5 / len(rounds)) >= args.seconds):
            break
    reference = None
    if args.workload == "service_fleet":
        reference = run_child(dict(base, mode="reference"), work, "reference")
    return {"setups": setups, "rounds": rounds, "reference": reference}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; run it from "
              "a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    machine = machine_facts()
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    problems: List[str] = []
    measured = None
    try:
        measured = measure(args, work)
    except ChildFailed as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "scale": SCALES[args.workload], "machine": machine}
    attempted = 1
    metrics: Dict[str, float] = {}
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if measured is not None:
        rounds = measured["rounds"]
        problems += check(args.workload, args.seed, rounds,
                          measured["reference"], load_golden())
        attempted = sum(len(r["jobs"]) + len(r["hits"]) for r in rounds)
        plain = [r for r in rounds if not r["traced"]]
        jobs = [j for r in plain for j in r["jobs"]]
        record.update(
            setup_samples=measured["setups"],
            rounds=rounds,
            reference=measured["reference"],
            wall_s_median_round=median(r["wall_s"] for r in plain),
            job_p50_s=median(jobs),
            job_tail_s=tail(jobs),
        )
        if measured["reference"] is not None:
            record.update(
                hit_p50_ms=median(h for r in plain for h in r["hits"]) * 1e3,
                first_event_p50_ms=median(
                    f for r in plain for f in r["first_events"]
                ) * 1e3,
            )
        if args.trace:
            metrics = per_layer(rounds)
            traced = [r for r in rounds if r["traced"]]
            record["layers_s"] = {
                key: median(r["layers"][key] for r in traced)
                for key in traced[0]["layers"]
            }
            record["per_layer"] = metrics
        else:
            try:
                metrics = end_to_end(
                    measured["setups"],
                    estimated_rounds(args.workload, rounds),
                    measured["reference"],
                )
            except ValueError as exc:
                problems.append(str(exc))
            record["end_to_end"] = metrics
    failed = attempted if problems else 0
    record.update(problems=problems, attempted=attempted, failed=failed,
                  failed_frac=failed / attempted)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for key, value in sorted(record.get("layers_s", {}).items()):
        print(f"  {key:48s} {value:.6g}")
    for key, value in metrics.items():
        print(f"{key:48s} {value:.6g} {units[key]}")
    print(f"record: {OUT_DIR / name}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
