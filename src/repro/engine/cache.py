"""On-disk, content-keyed result cache for experiment runs.

A cache entry is keyed by everything that determines an experiment's
result:

* the package version;
* the experiment's *source content* (a digest of its defining module, so
  editing one experiment invalidates only that experiment's entries);
* the :class:`~repro.experiments.runner.ExperimentContext` fingerprint --
  technology node, chip count, trace length, seed, and benchmark suite.

Variation scenarios and scheme sets are constants of each experiment
module and are therefore covered by the source digest.  Worker count and
observers are deliberately *not* part of the key: serial and parallel
runs produce bit-identical results, so they share entries.

Values are stored as pickle files, written atomically; any unreadable or
stale entry behaves as a miss.

:class:`ShardedResultCache` is the fleet-wide variant the execution
service uses: entries are spread over ``shard-XX`` subdirectories by
key prefix, and every shard access runs under an advisory per-shard file
lock, so many concurrent jobs (from many client processes) can share one
cache directory and dedupe work without contending on a single lock.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import pathlib
import pickle
from dataclasses import dataclass
from typing import Any, Iterator, Optional

try:  # POSIX advisory locks; sharding degrades gracefully without them.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.errors import ConfigurationError
from repro.engine.checkpoint import durable_write
from repro.engine.trace import span as trace_span


def source_digest(module_name: str) -> str:
    """SHA-256 of a module's source file ('' if it cannot be read)."""
    try:
        module = importlib.import_module(module_name)
        source_file = module.__file__
        if source_file is None:
            return ""
        return hashlib.sha256(
            pathlib.Path(source_file).read_bytes()
        ).hexdigest()
    except Exception:
        return ""


def resolve_cache(
    out_dir: Optional[pathlib.Path] = None,
    cache_dir: Optional[pathlib.Path] = None,
    enabled: bool = True,
) -> Optional["ResultCache"]:
    """The result cache a CLI invocation should use, or ``None``.

    One shared policy for ``run_all`` and the per-experiment entry
    points: an explicit ``cache_dir`` wins; otherwise the cache lives
    under ``out_dir/.cache``; with neither (or ``enabled=False``, the
    ``--no-cache`` flag) caching is off.
    """
    if not enabled:
        return None
    if cache_dir is None:
        if out_dir is None:
            return None
        cache_dir = pathlib.Path(out_dir) / ".cache"
    return ResultCache(cache_dir)


@dataclass
class CacheStats:
    """Hit/miss/store counters one cache instance accumulates.

    Purely diagnostic -- the counters never feed results -- but the
    execution service's dedupe gates read them (a second identical job
    must arrive as a hit, not a recompute)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    def as_dict(self) -> dict:
        """JSON-ready snapshot of the counters."""
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}


class ResultCache:
    """Content-keyed pickle store under one directory."""

    def __init__(self, directory: pathlib.Path):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    def key_for(self, experiment: Any, context: Any) -> str:
        """The cache key of ``experiment`` run under ``context``.

        ``experiment`` is an :class:`~repro.engine.registry.Experiment`
        (anything with ``name`` and ``module`` attributes works);
        ``context`` must provide ``cache_fingerprint()``.
        """
        from repro import __version__

        parts = [
            __version__,
            experiment.name,
            source_digest(experiment.module) if experiment.module else "",
            context.cache_fingerprint(),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    def path_for(self, key: str) -> pathlib.Path:
        """File backing one cache key."""
        return self.directory / f"{key}.pkl"

    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The cached value, or ``None`` on a miss or unreadable entry."""
        path = self.path_for(key)
        with trace_span("cache_get", cat="cache_io", key=key[:12]) as sp:
            try:
                with open(path, "rb") as handle:
                    value = pickle.load(handle)
            except FileNotFoundError:
                sp.set(hit=False)
                self.stats.misses += 1
                return None
            except Exception:
                # A truncated or version-incompatible entry is just a miss.
                sp.set(hit=False)
                self.stats.misses += 1
                return None
            sp.set(hit=True)
            self.stats.hits += 1
            return value

    def put(self, key: str, value: Any) -> pathlib.Path:
        """Store ``value`` under ``key`` (atomic replace)."""
        path = self.path_for(key)
        with trace_span("cache_put", cat="cache_io", key=key[:12]):
            durable_write(
                path, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            )
        self.stats.puts += 1
        return path

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in sorted(self.directory.glob("*.pkl")):
            path.unlink()
            removed += 1
        return removed


class ShardedResultCache(ResultCache):
    """A :class:`ResultCache` sharded by key prefix with per-shard locks.

    Entries live under ``shard-<prefix>/`` subdirectories chosen by the
    first ``shard_prefix_len`` hex characters of the (sha256) cache key,
    and each shard's reads and writes run under an advisory ``flock`` on
    that shard's ``.lock`` file.  Concurrent jobs -- in one process, in
    many service worker threads, or in entirely separate client
    processes -- therefore share entries safely, and writers to
    *different* shards never contend with each other.

    The interface is exactly :class:`ResultCache`'s, so
    :meth:`~repro.engine.registry.Experiment.execute` and every other
    call site accept either transparently.  On platforms without
    ``fcntl`` the locks degrade to no-ops; atomic-rename puts keep even
    the unlocked cache corruption-free (a concurrent reader sees the old
    or the new entry, never a torn one).
    """

    def __init__(
        self, directory: pathlib.Path, shard_prefix_len: int = 2
    ):
        if not 1 <= shard_prefix_len <= 8:
            raise ConfigurationError(
                "shard_prefix_len must be in [1, 8], got "
                f"{shard_prefix_len}"
            )
        self.shard_prefix_len = shard_prefix_len
        super().__init__(directory)

    # ------------------------------------------------------------------

    def shard_for(self, key: str) -> pathlib.Path:
        """The shard directory holding ``key``'s entry."""
        prefix = key[: self.shard_prefix_len].lower()
        return self.directory / f"shard-{prefix}"

    def path_for(self, key: str) -> pathlib.Path:
        """File backing one cache key (inside its shard)."""
        return self.shard_for(key) / f"{key}.pkl"

    @contextlib.contextmanager
    def _shard_lock(self, key: str, exclusive: bool) -> Iterator[None]:
        """Advisory per-shard lock (shared for reads, exclusive for
        writes); a no-op where ``fcntl`` is unavailable."""
        shard = self.shard_for(key)
        shard.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = shard.with_name(shard.name + ".lock")
        with open(lock_path, "a+b") as handle:
            fcntl.flock(
                handle.fileno(),
                fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH,
            )
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The cached value, under the shard's shared lock."""
        with self._shard_lock(key, exclusive=False):
            return super().get(key)

    def put(self, key: str, value: Any) -> pathlib.Path:
        """Store ``value``, under the shard's exclusive lock."""
        with self._shard_lock(key, exclusive=True):
            return super().put(key, value)

    def clear(self) -> int:
        """Delete every entry in every shard; returns the number removed."""
        removed = 0
        for shard in sorted(self.directory.glob("shard-*")):
            if not shard.is_dir():
                continue
            with self._shard_lock(shard.name.split("-", 1)[1], True):
                for path in sorted(shard.glob("*.pkl")):
                    path.unlink()
                    removed += 1
        return removed


__all__ = [
    "CacheStats",
    "ResultCache",
    "ShardedResultCache",
    "resolve_cache",
    "source_digest",
]
