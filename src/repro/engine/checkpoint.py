"""The task store: durable per-task results for resumable runs.

A :class:`RunJournal` maps the content digest of one engine task
(:func:`task_key`: the task function's qualified name plus the pickled
task payload) to that task's result.  The
:class:`~repro.engine.parallel.ParallelChipRunner` records every
completed work item as soon as it arrives, whichever executor computed
it, so a run killed at any point -- including mid-write -- restarts
with ``--resume`` and recomputes only the missing items.

Because keys are content digests, stored entries are only ever reused
for *byte-identical* task payloads executed by the same function: any
change to the context (seed, scale, node, schemes) changes the task
bytes and misses the store, which is what keeps resumed runs
bit-identical to uninterrupted ones.

The store holds each result once, on disk: a journal instance keeps
only the set of keys it trusts, and every read goes to the entry file,
so neither a run nor a fleet worker's queue keeps a second, in-memory
copy of every result it has recorded.

Layout under one store root (a run's ``checkpoint_dir``)::

    results/<key[:2]>/<key>.result

holding ``<16-byte sha256 prefix of the blob> <blob>``, where the blob
is the pickle of ``(key, value)``.  Each entry is written by
:func:`durable_write`: temp file, fsync, ``os.replace``, fsync of the
shard directory.  An entry is therefore either absent or complete; a
leftover ``*.tmp`` file is never read, and an unreadable or
digest-mismatched entry is a miss that gets recomputed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import pickle
import tempfile
from typing import Any, Callable, Set

from repro.engine.trace import span as trace_span

_DIGEST_BYTES = 16

_MISSING = object()


def canonical_dumps(task: Any) -> bytes:
    """Pickle ``task`` without memoization, so equal values give equal
    bytes.

    A plain ``pickle.dumps`` emits memo *backreferences* whenever the
    same object appears twice (e.g. a chip's technology node that is
    identical to the evaluator spec's), which makes the bytes depend on
    object identity -- and identity differs between a fresh run and one
    whose inputs were restored from a journal.  Task payloads are
    acyclic, so memo-free "fast" pickling is safe and canonical.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(task)
    return buffer.getvalue()


def task_key(fn: Callable[..., Any], task: Any) -> str:
    """Content digest identifying one unit of engine work.

    Two keys are equal exactly when the same module-level function would
    run over a value-identical pickled payload -- the precondition for
    reusing a stored result.
    """
    ident = "{}:{}".format(
        getattr(fn, "__module__", ""), getattr(fn, "__qualname__", repr(fn))
    )
    return hashlib.sha256(
        ident.encode() + b"\x00" + canonical_dumps(task)
    ).hexdigest()


def durable_write(path: pathlib.Path, payload: bytes) -> None:
    """Atomically and durably replace ``path`` with ``payload``.

    The bytes go to a uniquely named ``*.tmp`` sibling, are fsynced, and
    are renamed over ``path``; the directory is fsynced last so the
    rename itself survives a crash.  A reader sees the old file or the
    new one, never a torn one.
    """
    path = pathlib.Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class RunJournal:
    """Content-addressed durable store of completed task results.

    The trust rule: with ``resume=True`` every intact entry under the
    root is a hit; with ``resume=False`` only the keys this instance
    recorded (or :meth:`load`-ed) are, and its writes replace older
    entries.  An instance keeps the set of keys it trusts, never their
    values: :meth:`get` reads the entry from disk, so a long run (or a
    long-lived fleet worker) holds no second copy of every result.  The
    store is an engine-internal durability layer: entries are keyed by
    :func:`task_key` digests, never inspected by experiments.
    """

    def __init__(self, root: pathlib.Path, resume: bool = False):
        self.root = pathlib.Path(root)
        self.resume = resume
        self._trusted: Set[str] = set()

    def entry_path(self, key: str) -> pathlib.Path:
        """File holding ``key``'s entry, sharded by key prefix."""
        return self.root / "results" / key[:2] / f"{key}.result"

    # ------------------------------------------------------------------

    def load(self, key: str, default: Any = None) -> Any:
        """Read ``key``'s entry whatever the trust rule says.

        An intact entry joins this instance's trusted set; a missing,
        unreadable or digest-mismatched one returns ``default``.
        """
        try:
            data = self.entry_path(key).read_bytes()
        except OSError:
            return default
        blob = data[_DIGEST_BYTES:]
        if hashlib.sha256(blob).digest()[:_DIGEST_BYTES] != data[
            :_DIGEST_BYTES
        ]:
            return default
        try:
            stored_key, value = pickle.loads(blob)
        except Exception:
            return default
        if stored_key != key:
            return default
        self._trusted.add(key)
        return value

    def __contains__(self, key: str) -> bool:
        if key in self._trusted:
            return True
        return self.resume and self.load(key, _MISSING) is not _MISSING

    def get(self, key: str, default: Any = None) -> Any:
        """The stored result for ``key`` under the trust rule, read from
        disk, or ``default``."""
        if key in self._trusted or self.resume:
            return self.load(key, default)
        return default

    def record(self, key: str, value: Any) -> bool:
        """Durably store one completed result; False if already stored.

        The entry is on disk (and its rename fsynced) before this
        returns, so a crash immediately after cannot lose it.  A trusted
        key whose entry was discarded since is written again.
        """
        path = self.entry_path(key)
        if key in self._trusted and path.exists():
            return False
        with trace_span("journal_record", cat="checkpoint"):
            blob = pickle.dumps(
                (key, value), protocol=pickle.HIGHEST_PROTOCOL
            )
            path.parent.mkdir(parents=True, exist_ok=True)
            durable_write(
                path, hashlib.sha256(blob).digest()[:_DIGEST_BYTES] + blob
            )
        self._trusted.add(key)
        return True

    def discard(self, key: str) -> None:
        """Drop ``key``'s entry, on disk and in this instance."""
        self._trusted.discard(key)
        self.entry_path(key).unlink(missing_ok=True)


__all__ = [
    "RunJournal",
    "canonical_dumps",
    "durable_write",
    "task_key",
]
