"""One measured process of the benchmark.

``python3 perfbench/rounds.py SPEC.json`` does one of three jobs that
``run.py`` hands out, each in a fresh process, and writes what it measured
to the JSON file the spec names:

* ``setup`` -- import the package, populate the experiment registry and
  build what a run needs before its first experiment: the context, runner
  and result cache of a serial workload, or the job service plus one
  fleet spawn (up to the first task it serves) for ``service_fleet``.
* ``round`` -- the workload body once, starting from an empty result
  cache and journal, traced or untraced; a serial round then requests
  every experiment once more from the warm cache, untimed.
* ``reference`` -- the service jobs run locally (the in-process backend)
  so ``run.py`` can check the fleet's results byte for byte.
"""

import time

SETUP_START = time.perf_counter()  # before any of the package is imported

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (this file's directory is sys.path[0])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def job_seeds(spec):
    """The distinct seeds of one service round's cold jobs."""
    return [spec["seed"] * 1000 + j for j in range(spec["scale"]["jobs"])]


def _fleet_engine(scale):
    from repro.engine.config import EngineConfig

    return EngineConfig(
        workers=1, backend="subprocess-fleet", fleet_size=scale["fleet_size"]
    )


def _context(spec, out):
    """A serial context as ``run_all --workers 1 --out OUT`` builds it."""
    from repro.engine.config import EngineConfig
    from repro.experiments.runner import ExperimentContext

    scale = spec["scale"]
    return ExperimentContext(
        n_chips=scale["chips"],
        n_references=scale["refs"],
        seed=spec["seed"],
        engine=EngineConfig(workers=1, checkpoint_dir=out / ".checkpoints"),
    )


def _experiments(spec):
    from repro.engine.registry import all_experiments, get_experiment

    if spec["workload"] != "geomsweep":
        return [e for e in all_experiments() if e.name != "geomsweep"]
    from repro.experiments import geomsweep

    grid = {key: tuple(value) for key, value in spec["scale"]["grid"].items()}
    # The registered experiment on a pinned sub-grid: its own report,
    # CSV export and n_chips/4 scale policy.
    return [dataclasses.replace(
        get_experiment("geomsweep"), run=functools.partial(geomsweep.run, **grid)
    )]


def _digests(folder: pathlib.Path, prefix: str):
    return {
        f"{prefix}/{path.name}": _sha256(path.read_bytes())
        for path in sorted(folder.iterdir())
        if path.is_file()
    }


def _serial_pass(spec, out, folder, cached_expected, result, recorder=None):
    """Execute and render every experiment on one context, as ``run_all``
    does; latencies go to ``result["hits" if cached_expected else "jobs"]``.
    """
    from repro.engine.cache import ResultCache
    from repro.experiments.reporting import write_csv

    latencies = result["hits" if cached_expected else "jobs"]
    folder.mkdir(parents=True)
    cache = ResultCache(out / ".cache")
    context = _context(spec, out)
    try:
        for experiment in _experiments(spec):
            start = time.perf_counter()
            value, cached = experiment.execute(context, cache)
            with recorder.span("experiments.report") if recorder else (
                contextlib.nullcontext()
            ):
                text = experiment.report(value)
                (folder / f"{experiment.name}.txt").write_text(text + "\n")
                for export in experiment.csv_exports(value):
                    write_csv(folder / export.filename, export.headers,
                              export.rows)
            latencies.append(time.perf_counter() - start)
            if cached != cached_expected:
                result["failures"].append(f"{experiment.name}: cached={cached}")
    finally:
        context.close()
    result["digests"].update(_digests(folder, folder.name))


def serial_round(spec, work, recorder):
    """Every experiment once, cold."""
    result = {"jobs": [], "hits": [], "first_events": [], "failures": [],
              "digests": {}}
    out = work / "out"
    _serial_pass(spec, out, out / "cold", False, result, recorder)
    return result


def serial_rerequest(spec, work, result):
    """Every experiment once more from the warm result cache, after the
    clock, so ``run.py`` can check the cached bytes equal the cold ones.
    A re-run is a fresh process: new context, same on-disk cache."""
    out = work / "out"
    _serial_pass(spec, out, out / "hit", True, result)


def service_round(spec, work, recorder):
    """Closed loop, one client: cold jobs, then the same specs again."""
    from repro.service import ExecutionService
    from repro.service.jobs import DONE

    scale = spec["scale"]
    service = ExecutionService(work / "service", engine=_fleet_engine(scale))
    latencies = {"cold": [], "hit": []}
    first_events, failures, digests = [], [], {}
    try:
        for phase in ("cold", "hit"):
            for seed in job_seeds(spec):
                start = time.perf_counter()
                handle = service.submit(
                    scale["experiment"], chips=scale["chips"],
                    refs=scale["refs"], seed=seed,
                )
                first = None
                for _ in handle.events(follow=True):
                    if first is None:
                        first = time.perf_counter() - start
                status = handle.wait()
                latencies[phase].append(time.perf_counter() - start)
                if first is not None:
                    first_events.append(first)
                if status.state != DONE or status.cached != (phase == "hit"):
                    failures.append(
                        f"{phase} job {handle.job_id}: {status.state}, "
                        f"cached={status.cached}"
                    )
                    continue
                job_dir = service.jobs_dir / handle.job_id
                for name in ("result.pkl", "report.txt"):
                    digests[f"{phase}/{seed}/{name}"] = _sha256(
                        (job_dir / name).read_bytes()
                    )
    finally:
        service.close()
    return {"jobs": latencies["cold"], "hits": latencies["hit"],
            "first_events": first_events, "failures": failures,
            "digests": digests}


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return cpu, max(own.ru_maxrss, children.ru_maxrss)


def measured_round(spec, work):
    """The workload body once; see ``run.py`` for what is derived."""
    import repro.experiments  # noqa: F401  (registry, outside the clock)
    import repro.experiments.reporting  # noqa: F401
    import repro.service.api  # noqa: F401
    from repro.engine.registry import all_experiments

    all_experiments()
    recorder = layers.Recorder() if spec["traced"] else None
    counter = layers.SimCounter(recorder)
    patches = layers.Patches()
    serial = spec["workload"] != "service_fleet"
    units = layers.UnitTimer()
    if recorder is not None:
        layers.install_layers(recorder, counter, patches)
    else:
        counter.install(patches)
        if serial:
            units.install(patches)
    body = serial_round if serial else service_round
    cpu_before, _ = _usage()
    start = time.perf_counter()
    try:
        result = body(spec, work, recorder)
    finally:
        wall = time.perf_counter() - start
        patches.restore()
    cpu_after, peak_rss_kb = _usage()
    if serial:
        serial_rerequest(spec, work, result)
    result.update(
        traced=spec["traced"],
        wall_s=wall,
        cpu_s=cpu_after - cpu_before,
        peak_rss_kb=peak_rss_kb,
        sim=counter.summary(),
        unit_wall=units.wall,
        unit_cpu=units.cpu,
        missing_targets=patches.missing,
    )
    if recorder is not None:
        result["layers"] = layers.layer_report(recorder, counter, wall)
    result["spot_mismatches"] = counter.spot_check()
    return result


def setup(spec, work):
    """Seconds from process start until the workload could begin."""
    from repro.engine.cache import ResultCache
    from repro.engine.registry import all_experiments

    all_experiments()
    if spec["workload"] != "service_fleet":
        context = _context(spec, work)
        context.runner  # noqa: B018  (the runner is built lazily)
        ResultCache(work / ".cache")
        elapsed = time.perf_counter() - SETUP_START
        context.close()
        return {"setup_s": elapsed}
    from repro.engine.checkpoint import task_key
    from repro.service import ExecutionService
    from repro.service.backends import BatchItem
    from repro.service.fleet import SubprocessFleetExecutor

    engine = _fleet_engine(spec["scale"])
    ExecutionService(work / "service", engine=engine)
    executor = SubprocessFleetExecutor(engine.replace(queue_dir=work / "queue"))
    try:
        # The fleet is up once a worker has served one trivial task.
        item = BatchItem(0, task_key(abs, -1), -1)
        list(executor.run_batch(abs, [item], notify=lambda event: None))
        return {"setup_s": time.perf_counter() - SETUP_START}
    finally:
        executor.close()


def reference(spec, work):
    """Digest and reference count of each service job run locally."""
    from repro.engine.config import EngineConfig
    from repro.engine.registry import get_experiment
    from repro.experiments.runner import ExperimentContext

    scale = spec["scale"]
    experiment = get_experiment(scale["experiment"])
    counter = layers.SimCounter()
    patches = layers.Patches()
    counter.install(patches)
    out = {}
    try:
        for seed in job_seeds(spec):
            before = counter.summary()["core.sim.refs"]
            context = ExperimentContext(
                n_chips=scale["chips"], n_references=scale["refs"],
                seed=seed, engine=EngineConfig(workers=1),
            )
            with context:
                result, _ = experiment.execute(context)
            out[str(seed)] = {
                "result.pkl": _sha256(
                    pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
                ),
                "report.txt": _sha256(
                    (experiment.report(result) + "\n").encode()
                ),
                "refs": counter.summary()["core.sim.refs"] - before,
            }
    finally:
        patches.restore()
    return out


def main(spec_path: str) -> None:
    spec = json.loads(pathlib.Path(spec_path).read_text())
    work = pathlib.Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    job = {"setup": setup, "round": measured_round, "reference": reference}
    result = job[spec["mode"]](spec, work)
    pathlib.Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
