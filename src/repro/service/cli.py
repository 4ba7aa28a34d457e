"""The ``python -m repro.service`` command-line surface.

Four subcommands over one service root directory:

* ``submit`` -- record (and by default run) one experiment job;
  ``--detach`` only queues it for a ``serve`` loop.
* ``serve``  -- claim queued jobs, recover crashed ones, and keep
  serving until idle (or forever with ``--keep-alive``).
* ``watch``  -- stream one job's typed engine events as they land.
* ``jobs``   -- list every known job and its state.

All subcommands coordinate purely through the service root, so any mix
of them (from any number of shells) cooperates: submissions from one
process are picked up by a ``serve`` loop in another, and every process
shares the same sharded result cache.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.engine.config import (
    EXECUTION_BACKENDS,
    EngineConfig,
    LOCAL_BACKEND,
)
from repro.errors import ReproError
from repro.service.api import ExecutionService, WAIT_POLL_S
from repro.service.jobs import DONE, QUEUED


def _add_root(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--root", type=Path, default=Path("service-root"),
        help="service root directory (default: ./service-root)",
    )


def _service(args: argparse.Namespace) -> ExecutionService:
    return ExecutionService(
        args.root,
        engine=EngineConfig(workers=getattr(args, "workers", 1) or 1),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Async experiment jobs over a shared sharded result cache."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser(
        "submit", help="submit one experiment job",
    )
    _add_root(submit)
    submit.add_argument("experiment", help="registered experiment name")
    submit.add_argument("--chips", type=int, default=60)
    submit.add_argument("--refs", type=int, default=8000)
    submit.add_argument("--seed", type=int, default=2007)
    submit.add_argument("--technology", type=str, default="3t1d")
    submit.add_argument(
        "--geometry", type=str, default=None, metavar="SIZEKB:WAYS[:BANKS]",
    )
    submit.add_argument("--workers", type=int, default=1)
    submit.add_argument(
        "--backend", default=LOCAL_BACKEND, choices=EXECUTION_BACKENDS,
        help="execution backend for the job: 'local' (inline or a "
        "process pool) or 'subprocess-fleet' (persistent queue workers)",
    )
    submit.add_argument("--fleet-size", type=int, default=None)
    submit.add_argument(
        "--detach", action="store_true",
        help="only queue the job (a 'serve' loop will run it)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its report",
    )

    serve = sub.add_parser(
        "serve", help="run queued jobs and recover crashed ones",
    )
    _add_root(serve)
    serve.add_argument(
        "--keep-alive", action="store_true",
        help="keep polling for new submissions instead of exiting on idle",
    )
    serve.add_argument(
        "--poll", type=float, default=0.2,
        help="seconds between queue scans (default: 0.2)",
    )

    watch = sub.add_parser("watch", help="stream one job's engine events")
    _add_root(watch)
    watch.add_argument("job_id")
    watch.add_argument(
        "--no-follow", action="store_true",
        help="dump the events recorded so far and exit",
    )

    jobs = sub.add_parser("jobs", help="list known jobs")
    _add_root(jobs)
    return parser


def _cmd_submit(args: argparse.Namespace) -> int:
    service = _service(args)
    handle = service.submit(
        args.experiment,
        start=not args.detach,
        chips=args.chips,
        refs=args.refs,
        seed=args.seed,
        technology=args.technology,
        geometry=args.geometry,
        workers=args.workers,
        backend=args.backend,
        fleet_size=args.fleet_size,
    )
    print(handle.job_id)
    if args.detach:
        return 0
    try:
        status = handle.wait()
        if args.wait:
            print(service.report(handle.job_id), end="")
    finally:
        service.close()
    return 0 if status.state == DONE else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    service = _service(args)
    try:
        recovered = service.recover()
        for job_id in recovered:
            print(f"recovered {job_id}")
        while True:
            for job_id in service.run_pending():
                print(f"started {job_id}")
            service.drain()
            if not args.keep_alive:
                break
            queued = [s for s in service.jobs() if s.state == QUEUED]
            if not queued:
                time.sleep(args.poll)
    finally:
        service.close()
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    service = _service(args)
    for event in service.events(args.job_id, follow=not args.no_follow):
        print(event)
    status = service.status(args.job_id)
    print(f"{args.job_id}: {status.state}")
    return 0 if status.state in ("done", "running", "queued") else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    service = _service(args)
    statuses = service.jobs()
    if not statuses:
        print("no jobs")
        return 0
    for status in statuses:
        dedupe = " cached" if status.cached else ""
        print(
            f"{status.job_id}  {status.state:<9}  "
            f"{status.experiment}{dedupe}"
        )
    return 0


_COMMANDS = {
    "submit": _cmd_submit,
    "serve": _cmd_serve,
    "watch": _cmd_watch,
    "jobs": _cmd_jobs,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


__all__ = ["build_parser", "main"]
