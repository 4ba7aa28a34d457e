"""Batched scheme-evaluation kernel (the fast path behind every figure).

Every figure driver ultimately replays benchmark reference traces through
:class:`~repro.cache.controller.RetentionAwareCache`, once per
(chip x scheme x benchmark).  That event controller is the semantic
reference, but it pays interpreter overhead per memory reference.  This
module provides the production path:

* :class:`TraceArtifacts` -- per-trace columnar artifacts (a numpy
  structured array plus the plain-``int`` views derived from it)
  precomputed **once per suite** and shared by every evaluation instead
  of being re-derived per access;
* :func:`kernel_support` -- the typed capability probe: which replay
  path (``"flattened"``, ``"timeline"``, or ``"event"``) a cache
  configuration takes, and why when it must fall back;
* :func:`simulate_trace` -- the batched replay dispatcher.  LRU/DSP
  placement under the paper's four closed-form refresh policies runs the
  flattened kernel in this module; the RSP block-move schemes run the
  timeline kernel in :mod:`repro.core.timeline`.  Both paths are
  **bit-identical** to ``RetentionAwareCache.run_trace``.  Only their
  placement loops differ: both take their per-line constants and
  refresh counts from :class:`~repro.core.timeline.LineConstants`,
  record write-buffer pushes during the pass and replay them afterwards
  through :class:`~repro.cache.l2.WriteBuffer`, and finalize through
  :func:`~repro.core.timeline.replay_stats`.  Caches with a token
  refresh engine, a real L2, or third-party refresh/replacement objects
  stay on that event controller;
* :func:`evaluate_many` / :func:`evaluate` -- the stable batched API the
  engine (:mod:`repro.engine.parallel`) and the fig09/fig10/fig11
  drivers route through.

Bit-identity is enforced by tests that cross-validate the kernels
against the event controller on every scheme x benchmark; the perf
harness in ``benchmarks/perf/`` times both paths and records the speedup
and fast-path coverage in ``BENCH_batcheval.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChipDiscardedError, ConfigurationError, SimulationError
from repro.cache.controller import RetentionAwareCache
from repro.cache.refresh import (
    FullRefresh,
    GlobalRefresh,
    NoRefresh,
    PartialRefresh,
)
from repro.cache.replacement import (
    DSPPolicy,
    LRUPolicy,
    RSPFIFOPolicy,
    RSPLRUPolicy,
)
from repro.cache.stats import CacheStats
from repro.core.timeline import (
    LineConstants,
    Push,
    _replay_rsp_sets,
    owed_refreshes,
    replay_stats,
)
from repro.workloads.generator import MemoryTrace


def _trace_span(name: str, cat: str = "task", **args):
    """Ambient engine trace span (no-op unless a tracer is active).

    The import is deferred to call time: ``repro.engine``'s package init
    imports :mod:`repro.engine.parallel`, which imports this module, so
    a module-level import of ``repro.engine.trace`` here would be a
    cycle whenever batcheval is imported first.
    """
    from repro.engine.trace import span

    return span(name, cat=cat, **args)


#: Columnar layout shared by the replay kernels: one record per memory
#: reference, in program order.
COLUMN_DTYPE = np.dtype([
    ("cycle", np.int64),
    ("set", np.int32),
    ("tag", np.int64),
    ("write", np.bool_),
])


@dataclass(frozen=True)
class TraceArtifacts:
    """Per-trace columns precomputed once and shared by every evaluation.

    The event controller re-derives ``line_address % n_sets`` and
    ``line_address // n_sets`` (plus numpy-scalar conversions) on every
    access of every (chip, scheme) evaluation.  The kernels instead run
    over views of one structured array (:data:`COLUMN_DTYPE`), derived
    once per (trace, n_sets): the flattened kernel walks the
    program-order plain-``int`` lists; the per-set timeline kernel walks
    the :meth:`set_streams` regrouping of the same columns.
    """

    name: str
    n_sets: int
    cycles: List[int]
    set_indices: List[int]
    tags: List[int]
    is_write: List[bool]
    warmup_references: int
    end_cycle: int

    def __len__(self) -> int:
        return len(self.cycles)

    @classmethod
    def from_trace(cls, trace: MemoryTrace, n_sets: int) -> "TraceArtifacts":
        """Precompute the kernels' per-reference columns for one trace."""
        if n_sets < 1:
            raise ConfigurationError("n_sets must be >= 1")
        with _trace_span(
            "trace_artifacts", cat="traces",
            benchmark=trace.name, references=len(trace),
        ):
            addresses = np.asarray(trace.line_addresses, dtype=np.int64)
            columns = np.empty(len(addresses), dtype=COLUMN_DTYPE)
            columns["cycle"] = np.asarray(trace.cycles, dtype=np.int64)
            columns["set"] = addresses % n_sets
            columns["tag"] = addresses // n_sets
            columns["write"] = np.asarray(trace.is_write, dtype=bool)
            artifacts = cls(
                name=trace.name,
                n_sets=n_sets,
                cycles=columns["cycle"].tolist(),
                set_indices=columns["set"].tolist(),
                tags=columns["tag"].tolist(),
                is_write=columns["write"].tolist(),
                warmup_references=trace.warmup_references,
                end_cycle=int(trace.cycles[-1]) if len(trace) else 0,
            )
            object.__setattr__(artifacts, "_columns", columns)
            return artifacts

    def columnar(self) -> np.ndarray:
        """The trace as one structured array (:data:`COLUMN_DTYPE`).

        Built eagerly by :meth:`from_trace` (and lazily for artifacts
        constructed field-by-field), then cached on the instance.
        """
        cached = getattr(self, "_columns", None)
        if cached is not None:
            return cached
        columns = np.empty(len(self.cycles), dtype=COLUMN_DTYPE)
        columns["cycle"] = self.cycles
        columns["set"] = self.set_indices
        columns["tag"] = self.tags
        columns["write"] = self.is_write
        object.__setattr__(self, "_columns", columns)
        return columns

    def set_streams(self) -> List[Optional[Tuple]]:
        """The columns regrouped per cache set, for the timeline kernel.

        One entry per set: ``None`` for sets the trace never touches,
        else ``(ticks, cycles, tags, writes, warm_split)`` plain-int
        lists in program order, where ``ticks`` are global reference
        indices and ``warm_split`` is the position of the first
        post-warmup reference in this set's stream.  Derived once via a
        stable argsort over the ``set`` column, then cached.
        """
        cached = getattr(self, "_set_streams", None)
        if cached is not None:
            return cached
        columns = self.columnar()
        streams: List[Optional[Tuple]] = [None] * self.n_sets
        if len(columns):
            order = np.argsort(columns["set"], kind="stable")
            sets_sorted = columns["set"][order]
            bounds = np.searchsorted(
                sets_sorted, np.arange(self.n_sets + 1)
            )
            cycles_sorted = columns["cycle"][order]
            tags_sorted = columns["tag"][order]
            writes_sorted = columns["write"][order]
            warm = self.warmup_references
            for s in range(self.n_sets):
                lo, hi = int(bounds[s]), int(bounds[s + 1])
                if lo == hi:
                    continue
                ticks = order[lo:hi]
                streams[s] = (
                    ticks.tolist(),
                    cycles_sorted[lo:hi].tolist(),
                    tags_sorted[lo:hi].tolist(),
                    writes_sorted[lo:hi].tolist(),
                    int(np.searchsorted(ticks, warm)),
                )
        object.__setattr__(self, "_set_streams", streams)
        return streams


#: The replay paths :func:`kernel_support` can assign a cache to.
KERNEL_PATHS = ("flattened", "timeline", "event")


@dataclass(frozen=True)
class KernelSupport:
    """Which replay path a cache configuration takes, and why.

    ``path`` is ``"flattened"`` (this module's stationary-placement
    kernel), ``"timeline"`` (the RSP kernel in
    :mod:`repro.core.timeline`), or ``"event"`` (the per-reference event
    controller, with ``reason`` explaining the fallback).  ``supported``
    is True exactly when :func:`simulate_trace` accepts the cache.
    """

    supported: bool
    path: str
    reason: Optional[str] = None


def kernel_support(cache: RetentionAwareCache) -> KernelSupport:
    """Classify ``cache`` onto a batched replay path.

    The kernels are specialized for the paper's own refresh and
    placement policies without devices: a cache wired with a third-party
    policy, a refresh engine (``online_refresh=True``) or an L2
    simulator (``real_l2=True``) keeps the event controller (the
    returned ``reason`` says which object forced it).  ``"timeline"``
    means RSP placement.
    """
    if type(cache.refresh) not in (
        NoRefresh,
        PartialRefresh,
        FullRefresh,
        GlobalRefresh,
    ):
        return KernelSupport(False, "event", (
            f"refresh policy {cache.refresh.name!r} is not one of the "
            "paper's four closed-form policies"
        ))
    if type(cache.replacement) not in (
        LRUPolicy, DSPPolicy, RSPFIFOPolicy, RSPLRUPolicy
    ):
        return KernelSupport(False, "event", (
            f"replacement {cache.replacement.name!r} is not one of the "
            "paper's four placement policies"
        ))
    if cache.refresh_engine is not None or cache.l2_cache is not None:
        return KernelSupport(False, "event", (
            "caches with a refresh engine or an L2 simulator run on the "
            "event controller"
        ))
    if type(cache.replacement) in (RSPFIFOPolicy, RSPLRUPolicy):
        return KernelSupport(True, "timeline")
    return KernelSupport(True, "flattened")


def simulate_trace(
    cache: RetentionAwareCache, artifacts: TraceArtifacts
) -> CacheStats:
    """Run a whole trace through the batched kernels; returns the stats.

    ``cache`` must be a *fresh* (never accessed) simulator instance; it is
    used as the source of configuration, quantised retention, and policy
    objects, and is not mutated.  Dispatches on
    :func:`kernel_support`: stationary LRU/DSP placement runs the
    flattened kernel here; RSP placement runs the timeline kernel in
    :mod:`repro.core.timeline`.  The returned :class:`CacheStats` is
    bit-identical to ``cache.run_trace`` on the same trace for every
    supported configuration; an unsupported cache (a device-coupled one,
    for instance) raises :class:`~repro.errors.ConfigurationError`.
    """
    support = kernel_support(cache)
    if not support.supported:
        raise ConfigurationError(
            f"kernel cannot run this cache: {support.reason}"
        )
    if cache._tick:
        raise SimulationError(
            "simulate_trace needs a fresh (never accessed) cache instance"
        )
    if artifacts.n_sets != cache.config.geometry.n_sets:
        raise ConfigurationError(
            f"artifacts were built for {artifacts.n_sets} sets but the "
            f"cache has {cache.config.geometry.n_sets}"
        )
    if support.path == "timeline":
        return _replay_rsp_sets(cache, artifacts)
    return _simulate_flattened(cache, artifacts)


def _simulate_flattened(
    cache: RetentionAwareCache, artifacts: TraceArtifacts
) -> CacheStats:
    """The stationary-placement (LRU/DSP, no devices) replay kernel."""
    config = cache.config
    geometry = config.geometry
    n_sets = geometry.n_sets
    n_ways = geometry.ways

    aware = cache.replacement.uses_retention_info
    dsp = type(cache.replacement) is DSPPolicy
    write_back = config.write_back

    lines = LineConstants.of(cache)
    retention = lines.retention
    lifetime: List[float] = [lines.lifetime[r] for r in retention]
    count = lines.refresh_count

    n_lines = n_sets * n_ways
    # Tags live in one row per set with -1 marking invalid ways, so the
    # hot-path lookup is a C-speed ``tag in row`` / ``row.index(tag)``
    # over n_ways elements instead of a Python loop; first-match order
    # equals the controller's way-order scan.
    set_tags: List[List[int]] = [[-1] * n_ways for _ in range(n_sets)]
    valid = [False] * n_lines
    dirty = [False] * n_lines
    stale = [False] * n_lines
    fill_c = [0] * n_lines
    expiry = [0.0] * n_lines
    recency = [0] * n_lines
    INF = math.inf
    # Earliest expiry of any live resident line per set: the kernel only
    # scans a set for expiries when the clock actually reaches it.
    next_expiry = [INF] * n_sets
    live_by_set: List[List[int]] = []
    if dsp:
        for s in range(n_sets):
            base = s * n_ways
            live_by_set.append(sorted(
                (base + w for w in range(n_ways) if retention[base + w] > 0),
                key=lambda j: (-retention[j], j),
            ))

    # Stat counters as locals (assembled into CacheStats at the end).
    hits = misses_cold = misses_expired = misses_dead = writebacks = 0
    expiry_wb = write_throughs = l2_acc = line_refreshes = fills = 0
    # Write-buffer pushes, replayed in program order after the pass.
    pushes: List[Push] = []

    def _evict(j, cyc, index):
        """Controller.evict_line on a valid way."""
        nonlocal writebacks, line_refreshes
        if stale[j]:
            # Expiry already accounted refreshes and any write-back.
            valid[j] = False
            stale[j] = False
            dirty[j] = False
            return
        if count:
            line_refreshes += count(cyc - fill_c[j], retention[j])
        if dirty[j]:
            writebacks += 1
            pushes.append((index, len(pushes), cyc))
            dirty[j] = False
        valid[j] = False

    cycles = artifacts.cycles
    sets_in = artifacts.set_indices
    tags_in = artifacts.tags
    writes_in = artifacts.is_write
    n = len(cycles)
    warm = artifacts.warmup_references
    tick = 0

    # Two zip segments split at the warmup boundary: the per-access loop
    # then carries no index arithmetic and no warmup branch.
    if 0 < warm < n:
        segments = ((0, warm), (warm, n))
    else:
        segments = ((0, n),)
    for start, stop in segments:
        if start:
            # Measurement begins: drop the warmup counts (state persists).
            hits = misses_cold = misses_expired = misses_dead = 0
            writebacks = expiry_wb = write_throughs = l2_acc = 0
            line_refreshes = fills = 0
        for cyc, s, tag, wr in zip(
            cycles[start:stop],
            sets_in[start:stop],
            tags_in[start:stop],
            writes_in[start:stop],
        ):
            tick += 1
            base = s * n_ways
            row = set_tags[s]

            # Lazy per-set expiry sweep, skipped while nothing can expire.
            recent = None
            if cyc >= next_expiry[s]:
                nxt = INF
                for w in range(n_ways):
                    j = base + w
                    if valid[j] and not stale[j]:
                        e = expiry[j]
                        if cyc >= e:
                            t = row[w]
                            if recent is None:
                                recent = {t}
                            else:
                                recent.add(t)
                            ecyc = int(e)
                            if count:
                                line_refreshes += count(
                                    ecyc - fill_c[j], retention[j]
                                )
                            if dirty[j]:
                                writebacks += 1
                                expiry_wb += 1
                                pushes.append((tick - 1, len(pushes), ecyc))
                                dirty[j] = False
                            if aware:
                                valid[j] = False
                                row[w] = -1
                            else:
                                stale[j] = True
                        elif e < nxt:
                            nxt = e
                next_expiry[s] = nxt

            # Hits vastly outnumber misses, so a single ``index`` scan
            # with an exception fallback beats ``in`` + ``index``.
            try:
                way = base + row.index(tag)
            except ValueError:
                way = -1

            if wr and not write_back:
                # Write-through, no-write-allocate store path.
                write_throughs += 1
                pushes.append((tick - 1, len(pushes), cyc))
                if way >= 0 and not stale[way]:
                    recency[way] = tick
                    hits += 1
                else:
                    misses_cold += 1
                continue

            if way >= 0:
                if stale[way]:
                    # Expired miss: the line refills in place from the L2.
                    misses_expired += 1
                    l2_acc += 1
                    stale[way] = False
                    dirty[way] = wr
                    fill_c[way] = cyc
                    e = cyc + lifetime[way]
                    expiry[way] = e
                    if e < next_expiry[s]:
                        next_expiry[s] = e
                    recency[way] = tick
                    fills += 1
                    continue
                hits += 1
                recency[way] = tick
                if wr:
                    dirty[way] = True
                continue

            # Miss: classify by whether the tag was resident-but-expired.
            expired = recent is not None and tag in recent
            l2_acc += 1
            if dsp:
                live = live_by_set[s]
                if not live:
                    misses_dead += 1
                    continue
                victim = -1
                for j in live:
                    if not valid[j]:
                        victim = j
                        break
                if victim < 0:
                    best = -1
                    best_r = 0
                    for j in live:
                        r_ = recency[j]
                        if best < 0 or r_ < best_r:
                            best = j
                            best_r = r_
                    victim = best
                    _evict(victim, cyc, tick - 1)
            else:
                victim = -1
                for w in range(n_ways):
                    j = base + w
                    if not valid[j]:
                        victim = j
                        break
                if victim < 0:
                    best = base
                    best_r = recency[base]
                    for w in range(1, n_ways):
                        j = base + w
                        r_ = recency[j]
                        if r_ < best_r:
                            best = j
                            best_r = r_
                    victim = best
                    _evict(victim, cyc, tick - 1)
            if expired:
                misses_expired += 1
            else:
                misses_cold += 1
            row[victim - base] = tag
            valid[victim] = True
            stale[victim] = False
            dirty[victim] = wr
            fill_c[victim] = cyc
            e = cyc + lifetime[victim]
            expiry[victim] = e
            if e < next_expiry[s]:
                next_expiry[s] = e
            recency[victim] = tick
            fills += 1

    if warm and n <= warm:
        # Every reference fell inside the warmup prefix.
        hits = misses_cold = misses_expired = misses_dead = writebacks = 0
        expiry_wb = write_throughs = l2_acc = line_refreshes = fills = 0
    if count:
        line_refreshes += owed_refreshes(count, (
            (expiry[j], fill_c[j], retention[j])
            for j in range(n_lines) if valid[j] and not stale[j]
        ), artifacts.end_cycle)

    return replay_stats(
        cache, artifacts, pushes,
        line_refreshes=line_refreshes,
        hits=hits,
        misses_cold=misses_cold,
        misses_expired=misses_expired,
        misses_dead_bypass=misses_dead,
        writebacks=writebacks,
        expiry_writebacks=expiry_wb,
        write_throughs=write_throughs,
        l2_accesses=l2_acc,
        fills=fills,
    )


# ----------------------------------------------------------------------
# batched evaluation API
# ----------------------------------------------------------------------


def _resolve_suite(suite):
    """Turn ``suite`` into an Evaluator (the object hosting the traces).

    Accepts an :class:`~repro.core.evaluation.Evaluator`, anything with a
    ``build()`` method returning one (e.g.
    :class:`~repro.engine.parallel.EvaluatorSpec`), or ``None`` for the
    default 32nm suite.
    """
    from repro.core.evaluation import Evaluator

    if suite is None:
        from repro.technology.node import NODE_32NM

        return Evaluator(NODE_32NM)
    if isinstance(suite, Evaluator):
        return suite
    build = getattr(suite, "build", None)
    if callable(build):
        evaluator = build()
        if isinstance(evaluator, Evaluator):
            return evaluator
    raise ConfigurationError(
        "suite must be an Evaluator, an object whose .build() returns "
        f"one, or None; got {type(suite).__name__}"
    )


def evaluate_many(
    chips: Sequence,
    schemes: Sequence,
    suite=None,
    *,
    benchmarks: Optional[Sequence[str]] = None,
):
    """Evaluate every (chip, scheme) pair against the benchmark suite.

    Parameters
    ----------
    chips:
        :class:`~repro.array.chip.DRAM3T1DChipSample` instances.
    schemes:
        :class:`~repro.core.schemes.RetentionScheme` objects or
        paper-style names.
    suite:
        The benchmark suite: an
        :class:`~repro.core.evaluation.Evaluator` (traces and per-trace
        artifacts are precomputed once on it and shared by every pair),
        an ``EvaluatorSpec``-like object with ``build()``, or ``None``
        for the default suite.
    benchmarks:
        Optional benchmark subset (default: the suite's full set).

    Returns
    -------
    A list with one row per chip; each row holds one
    :class:`~repro.core.evaluation.ChipEvaluation` per scheme, in order,
    or ``None`` where the chip is discarded under that scheme (the
    global scheme's retention rule).
    """
    from repro.core.architecture import Cache3T1DArchitecture
    from repro.core.schemes import RetentionScheme, get_scheme

    evaluator = _resolve_suite(suite)
    scheme_objs = [
        scheme if isinstance(scheme, RetentionScheme) else get_scheme(scheme)
        for scheme in schemes
    ]
    results = []
    for chip in chips:
        with _trace_span(
            "evaluate_schemes", cat="kernel",
            chip_id=getattr(chip, "chip_id", -1), schemes=len(scheme_objs),
        ):
            row = []
            for scheme in scheme_objs:
                try:
                    architecture = Cache3T1DArchitecture(
                        chip, scheme, config=evaluator.config
                    )
                    row.append(
                        evaluator.evaluate(architecture, benchmarks=benchmarks)
                    )
                except ChipDiscardedError:
                    row.append(None)
            results.append(row)
    return results


def evaluate(
    chip,
    scheme,
    suite=None,
    *,
    benchmarks: Optional[Sequence[str]] = None,
):
    """Evaluate one (chip, scheme) pair; the single-pair facade entry.

    Raises :class:`~repro.errors.ChipDiscardedError` when the chip
    cannot operate under the scheme (use :func:`evaluate_many` to get
    ``None`` markers instead of exceptions over a batch).
    """
    result = evaluate_many([chip], [scheme], suite, benchmarks=benchmarks)
    evaluation = result[0][0]
    if evaluation is None:
        from repro.core.schemes import RetentionScheme, get_scheme

        name = (
            scheme.name if isinstance(scheme, RetentionScheme)
            else get_scheme(scheme).name
        )
        raise ChipDiscardedError(
            f"chip {getattr(chip, 'chip_id', '?')} is discarded under "
            f"scheme {name!r}"
        )
    return evaluation


__all__ = [
    "COLUMN_DTYPE",
    "KERNEL_PATHS",
    "KernelSupport",
    "TraceArtifacts",
    "simulate_trace",
    "kernel_support",
    "evaluate_many",
    "evaluate",
]
