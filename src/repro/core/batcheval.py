"""Batched scheme-evaluation kernel (the fast path behind every figure).

Every figure driver ultimately replays benchmark reference traces through
:class:`~repro.cache.controller.RetentionAwareCache`, once per
(chip x scheme x benchmark).  That event controller is the semantic
reference, but it pays interpreter overhead per memory reference.  This
module provides the production path:

* :class:`TraceArtifacts` -- per-trace columnar artifacts (a numpy
  structured array and the kernels' regroupings of it) precomputed
  **once per suite** and shared by every evaluation instead of being
  re-derived per access;
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
* the flattened kernel steps every set together over stream position
  (:class:`LockstepPlan`): each step is one round of numpy operations
  on a (sets x ways) state, for as long as at least
  :data:`LOCKSTEP_MIN_SETS` sets are active -- which covers the
  evaluator's warmup fill, ``ways`` references per set.  The rest of
  the trace, the few hot sets' tails, replays reference by reference
  over just those sets' state.  Sets share nothing but the write
  buffer, which is replayed after the pass, so the split cannot change
  a result;
* :func:`evaluate_many` / :func:`evaluate` -- the stable batched API the
  engine (:mod:`repro.engine.parallel`) and the fig09/fig10/fig11
  drivers route through.

Bit-identity is enforced by tests that cross-validate the kernels
against the event controller on every scheme x benchmark;
``benchmarks/test_perf_gates.py`` times both paths and fails below a 5x
speedup on the fig10 shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
    refreshes,
    replay_stats,
    retention_order,
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


@dataclass(frozen=True, eq=False)
class TraceArtifacts:
    """Per-trace columns precomputed once and shared by every evaluation.

    The event controller re-derives ``line_address % n_sets`` and
    ``line_address // n_sets`` (plus numpy-scalar conversions) on every
    access of every (chip, scheme) evaluation.  The kernels instead run
    over one structured array (``columns``, :data:`COLUMN_DTYPE`),
    derived once per (trace, n_sets), and the regroupings of it cached
    here: :meth:`lockstep` for the flattened kernel, :meth:`set_streams`
    for the per-set timeline kernel.
    """

    name: str
    n_sets: int
    columns: np.ndarray = field(repr=False)
    warmup_references: int
    end_cycle: int

    def __len__(self) -> int:
        return len(self.columns)

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
            return cls(
                name=trace.name,
                n_sets=n_sets,
                columns=columns,
                warmup_references=trace.warmup_references,
                end_cycle=int(trace.cycles[-1]) if len(trace) else 0,
            )

    # Plain-int views of single columns, built on each access: the
    # kernels read ``columns``; these serve callers that replay the
    # trace on the event controller.
    @property
    def cycles(self) -> List[int]:
        """Reference cycles, in program order."""
        return self.columns["cycle"].tolist()

    @property
    def set_indices(self) -> List[int]:
        """Cache set of each reference."""
        return self.columns["set"].tolist()

    @property
    def tags(self) -> List[int]:
        """Tag of each reference."""
        return self.columns["tag"].tolist()

    @property
    def is_write(self) -> List[bool]:
        """Whether each reference is a store."""
        return self.columns["write"].tolist()

    def set_order(self) -> np.ndarray:
        """Reference indices grouped by cache set, program order within.

        One stable argsort over the ``set`` column, run once per
        (trace, n_sets) and cached; :meth:`set_streams` and
        :meth:`lockstep` both derive from it.
        """
        cached = getattr(self, "_set_order", None)
        if cached is None:
            cached = np.argsort(self.columns["set"], kind="stable")
            object.__setattr__(self, "_set_order", cached)
        return cached

    def set_streams(self) -> List[Optional[Tuple]]:
        """The columns regrouped per cache set, for the timeline kernel.

        One entry per set: ``None`` for sets the trace never touches,
        else ``(ticks, cycles, tags, writes, warm_split)`` plain-int
        lists in program order, where ``ticks`` are global reference
        indices and ``warm_split`` is the position of the first
        post-warmup reference in this set's stream.  Derived from
        :meth:`set_order`, then cached.
        """
        cached = getattr(self, "_set_streams", None)
        if cached is not None:
            return cached
        columns = self.columns
        streams: List[Optional[Tuple]] = [None] * self.n_sets
        if len(columns):
            order = self.set_order()
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

    def lockstep(self) -> "LockstepPlan":
        """The flattened kernel's split of this trace, cached.

        Built once per (trace, n_sets) from :meth:`set_order`; see
        :class:`LockstepPlan`.
        """
        cached = getattr(self, "_lockstep", None)
        if cached is None:
            cached = LockstepPlan.of(self)
            object.__setattr__(self, "_lockstep", cached)
        return cached


#: The flattened kernel steps every set together while at least this
#: many sets are still active; the references past that point (the hot
#: sets' tails) replay through its scalar loop.
LOCKSTEP_MIN_SETS = 32

#: Recency of a dead way: later than any reference, so never the victim.
_NO_STAMP = np.iinfo(np.int64).max

#: One lockstep step: (active rows m, reference indices, measured) where
#: ``measured`` is True or False when every or no reference of the step
#: is past the warmup split, else the per-row mask.
_Step = Tuple[int, np.ndarray, object]


@dataclass(frozen=True, eq=False)
class LockstepPlan:
    """How the flattened kernel walks one trace, derived once per trace.

    The kernel keeps one state row per touched set, deepest stream
    first (``sets``), so the sets still active at stream position ``k``
    are always a prefix of the rows.  ``steps[k]`` replays position
    ``k`` of every active set at once, for as long as at least
    :data:`LOCKSTEP_MIN_SETS` sets are active; the warmup fill gives
    every set ``ways`` references, so those steps cover it.  The
    remaining references (``tail``, in program order, with their state
    rows ``tail_row``) belong to rows ``[:tail_rows]``, the hot sets,
    and replay one at a time; the first ``tail_split`` of them precede
    the warmup split.
    """

    sets: np.ndarray
    steps: Tuple[_Step, ...]
    tail_rows: int
    tail: np.ndarray
    tail_row: np.ndarray
    tail_split: int

    @property
    def tail_refs(self) -> int:
        """References the scalar tail replays."""
        return len(self.tail)

    @property
    def lockstep_refs(self) -> int:
        """References the lockstep steps replay."""
        return sum(len(step[1]) for step in self.steps)

    @classmethod
    def of(cls, artifacts: TraceArtifacts) -> "LockstepPlan":
        set_col = artifacts.columns["set"]
        n = len(set_col)
        warm = artifacts.warmup_references
        depth = np.bincount(set_col, minlength=artifacts.n_sets)
        touched = np.flatnonzero(depth)
        sets = touched[np.argsort(-depth[touched], kind="stable")]
        row_depth = depth[sets]
        row_of = np.zeros(artifacts.n_sets, dtype=np.int64)
        row_of[sets] = np.arange(len(sets))
        front = (
            int(row_depth[LOCKSTEP_MIN_SETS - 1])
            if len(sets) >= LOCKSTEP_MIN_SETS else 0
        )
        # Each reference's position within its set's stream.
        order = artifacts.set_order()
        starts = np.concatenate(([0], np.cumsum(depth)[:-1]))
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n) - starts[set_col[order]]
        rows = row_of[set_col]

        steps: List[_Step] = []
        if front:
            in_front = np.flatnonzero(position < front)
            grid = np.empty((front, len(sets)), dtype=np.int64)
            grid[position[in_front], rows[in_front]] = in_front
            for k in range(front):
                index = grid[k, :int(np.count_nonzero(row_depth > k))].copy()
                measured = index >= warm
                steps.append((
                    len(index), index,
                    True if measured.all()
                    else measured if measured.any() else False,
                ))
        tail = np.flatnonzero(position >= front)
        return cls(
            sets=sets,
            steps=tuple(steps),
            tail_rows=int(np.count_nonzero(row_depth > front)),
            tail=tail,
            tail_row=rows[tail],
            tail_split=int(np.searchsorted(tail, warm)),
        )


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
    """The stationary-placement (LRU/DSP, no devices) replay kernel.

    Sets are independent apart from the write buffer, whose pushes are
    recorded and replayed after the pass, so each set only has to see
    its own references in order.  The lockstep front replays stream
    position ``k`` of every active set with one round of numpy
    operations on a (sets x ways) state; the hot sets' tails then
    replay in program order through :func:`_replay_tail`, over the
    state of just those sets.
    """
    plan = artifacts.lockstep()
    with _trace_span(
        "core.batcheval.flattened", cat="replay",
        lockstep_refs=plan.lockstep_refs, tail_refs=plan.tail_refs,
    ):
        return _replay_flattened(cache, artifacts, plan)


#: The counters the flattened kernel keeps, by :class:`CacheStats` field.
_COUNTS = (
    "hits", "misses_cold", "misses_expired", "misses_dead_bypass",
    "writebacks", "expiry_writebacks", "write_throughs", "l2_accesses",
    "fills", "line_refreshes",
)


def _tally(measured, rows: np.ndarray) -> int:
    """How many of the step's ``rows`` are past the warmup split."""
    if measured is True:
        return len(rows)
    if measured is False:
        return 0
    return int(np.count_nonzero(measured[rows]))


def _tally_sum(measured, rows: np.ndarray, values: np.ndarray) -> int:
    """The sum of ``values`` over the ``rows`` past the warmup split."""
    if measured is True:
        return int(values.sum())
    if measured is False:
        return 0
    return int(values[measured[rows]].sum())


def _replay_flattened(
    cache: RetentionAwareCache,
    artifacts: TraceArtifacts,
    plan: LockstepPlan,
) -> CacheStats:
    config = cache.config
    ways = config.geometry.ways
    aware = cache.replacement.uses_retention_info
    dsp = type(cache.replacement) is DSPPolicy
    write_back = config.write_back

    lines = LineConstants.of(cache)
    count = lines.refresh_count
    # State row r is set ``plan.sets[r]``; slot ``r * ways + w`` is its
    # way w.  Per-slot constants follow the same order.
    n_rows = len(plan.sets)
    shape = (n_rows, ways)
    retention = lines.retention.reshape(-1, ways)[plan.sets].reshape(-1)
    lifetime = lines.lifetime.reshape(-1, ways)[plan.sets].reshape(-1)
    cap = (
        lines.cap.reshape(-1, ways)[plan.sets].reshape(-1)
        if count else None
    )
    if dsp:
        # Victim candidates in the controller's (-retention, way) order;
        # only the first n_live of each row are live.
        cand, n_live = retention_order(retention.reshape(shape))
        cand_live = np.arange(ways) < n_live[:, None]
        has_live = n_live > 0

    n_slots = n_rows * ways
    tags = np.full(n_slots, -1, dtype=np.int64)  # -1 = invalid way
    valid = np.zeros(n_slots, dtype=bool)
    dirty = np.zeros(n_slots, dtype=bool)
    stale = np.zeros(n_slots, dtype=bool)
    fill = np.zeros(n_slots, dtype=np.int64)
    # Expiry of live lines; +inf for invalid and stale ones, so one
    # compare finds the lines an access's sweep expires.
    expiry = np.full(n_slots, np.inf)
    recency = np.zeros(n_slots, dtype=np.int64)  # reference index
    tags2 = tags.reshape(shape)
    expiry2 = expiry.reshape(shape)
    slot0 = np.arange(n_rows, dtype=np.int64) * ways
    way_ids = np.arange(ways)

    totals = dict.fromkeys(_COUNTS, 0)
    # Write-buffer pushes as (index, emission order, cycle) columns: an
    # access's expiry pushes in way order, then its eviction or store.
    push_cols: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    columns = artifacts.columns
    for m, index, measured in plan.steps:
        cyc = columns["cycle"][index][:, None]
        tag = columns["tag"][index][:, None]
        wr = columns["write"][index]
        # Expiry sweep of every active set at once.
        lost = None
        due = expiry2[:m] <= cyc
        if due.any():
            er, ew = due.nonzero()
            es = slot0[er] + ew
            e = expiry[es]
            ecyc = e.astype(np.int64)
            # Rows whose own tag just expired: an expired, not cold, miss.
            lost = np.zeros(m, dtype=bool)
            lost[er[tags[es] == tag[er, 0]]] = True
            if count:
                totals["line_refreshes"] += _tally_sum(
                    measured, er,
                    refreshes(ecyc - fill[es], retention[es], cap[es]),
                )
            d = dirty[es]
            if d.any():
                k = _tally(measured, er[d])
                totals["writebacks"] += k
                totals["expiry_writebacks"] += k
                push_cols.append((index[er[d]], ew[d], ecyc[d]))
                dirty[es[d]] = False
            if aware:
                valid[es] = False
                tags[es] = -1
            else:
                stale[es] = True
            expiry[es] = np.inf

        match = tags2[:m] == tag
        hit = match.any(1)
        hs = slot0[:m] + match.argmax(1)
        stale_hit = hit & stale[hs]
        live_hit = hit & ~stale_hit
        miss = ~hit
        if not write_back and wr.any():
            # Write-through, no-write-allocate stores: pushed, never
            # filled; a live hit still counts (below).
            wt = np.flatnonzero(wr)
            totals["write_throughs"] += _tally(measured, wt)
            push_cols.append((
                index[wt], np.full(len(wt), ways, dtype=np.int64),
                cyc[wt, 0],
            ))
            totals["misses_cold"] += _tally(measured, wt[~live_hit[wt]])
            stale_hit &= ~wr
            miss &= ~wr

        hr = np.flatnonzero(live_hit)
        if len(hr):
            totals["hits"] += _tally(measured, hr)
            recency[hs[hr]] = index[hr]
            if write_back:
                dirty[hs[hr[wr[hr]]]] = True

        if stale_hit.any():
            # Expired miss: the line refills in place from the L2.
            rr = np.flatnonzero(stale_hit)
            k = _tally(measured, rr)
            totals["misses_expired"] += k
            totals["l2_accesses"] += k
            totals["fills"] += k
            rs = hs[rr]
            c = cyc[rr, 0]
            stale[rs] = False
            dirty[rs] = wr[rr]
            fill[rs] = c
            expiry[rs] = c + lifetime[rs]
            recency[rs] = index[rr]

        mr = np.flatnonzero(miss)
        if not len(mr):
            continue
        totals["l2_accesses"] += _tally(measured, mr)
        if dsp:
            dead = ~has_live[mr]
            if dead.any():
                totals["misses_dead_bypass"] += _tally(measured, mr[dead])
                mr = mr[~dead]
                if not len(mr):
                    continue
        if dsp:
            slots = slot0[mr, None] + cand[mr]
            free = ~valid[slots] & cand_live[mr]
        else:
            slots = slot0[mr, None] + way_ids
            free = ~valid[slots]
        pick = free.argmax(1)
        span = np.arange(len(mr))
        full = ~free[span, pick]
        if full.any():
            # No free candidate: evict the least recently used one.
            fr = np.flatnonzero(full)
            held = recency[slots[fr]]
            if dsp:
                held = np.where(cand_live[mr[fr]], held, _NO_STAMP)
            pick[fr] = held.argmin(1)
            vs = slots[fr, pick[fr]]
            er = mr[fr]
            # A stale victim already settled its refreshes and write-back.
            fresh = ~stale[vs]
            if count:
                ev = vs[fresh]
                totals["line_refreshes"] += _tally_sum(
                    measured, er[fresh], refreshes(
                        cyc[er[fresh], 0] - fill[ev], retention[ev], cap[ev]
                    ),
                )
            d = fresh & dirty[vs]
            if d.any():
                totals["writebacks"] += _tally(measured, er[d])
                push_cols.append((
                    index[er[d]], np.full(int(d.sum()), ways, dtype=np.int64),
                    cyc[er[d], 0],
                ))
        vs = slots[span, pick]
        if lost is None:
            totals["misses_cold"] += _tally(measured, mr)
        else:
            totals["misses_expired"] += _tally(measured, mr[lost[mr]])
            totals["misses_cold"] += _tally(measured, mr[~lost[mr]])
        totals["fills"] += _tally(measured, mr)
        c = cyc[mr, 0]
        tags[vs] = tag[mr, 0]
        valid[vs] = True
        stale[vs] = False
        dirty[vs] = wr[mr]
        fill[vs] = c
        expiry[vs] = c + lifetime[vs]
        recency[vs] = index[mr]

    pushes: List[Push] = []
    for cols in push_cols:
        pushes.extend(zip(*(col.tolist() for col in cols)))

    if plan.tail_refs:
        # Hand the hot sets' state to the scalar loop and back.
        n_tail = plan.tail_rows * ways
        state = (
            tags2[:plan.tail_rows].tolist(),
            valid[:n_tail].tolist(),
            dirty[:n_tail].tolist(),
            stale[:n_tail].tolist(),
            fill[:n_tail].tolist(),
            expiry[:n_tail].tolist(),
            recency[:n_tail].tolist(),
            expiry2[:plan.tail_rows].min(1).tolist(),
        )
        live_by_set = (
            [
                [r * ways + w for w in cand[r, :n_live[r]].tolist()]
                for r in range(plan.tail_rows)
            ]
            if dsp else None
        )
        constants = (
            retention[:n_tail].tolist(), lifetime[:n_tail].tolist(),
            live_by_set, count, aware, write_back, ways,
        )
        # (index, row, cycle, tag, write) plain-int lists, split at the
        # warmup boundary: the pre-warmup counts are dropped.
        split = plan.tail_split
        segment = (
            plan.tail.tolist(), plan.tail_row.tolist(),
            columns["cycle"][plan.tail].tolist(),
            columns["tag"][plan.tail].tolist(),
            columns["write"][plan.tail].tolist(),
        )
        _replay_tail(
            [column[:split] for column in segment], state, constants, pushes
        )
        counts = _replay_tail(
            [column[split:] for column in segment], state, constants, pushes
        )
        for key, value in counts.items():
            totals[key] += value
        valid[:n_tail] = state[1]
        stale[:n_tail] = state[3]
        fill[:n_tail] = state[4]
        expiry[:n_tail] = state[5]

    if count:
        resident = valid & ~stale
        totals["line_refreshes"] += owed_refreshes(
            expiry[resident], fill[resident], retention[resident],
            cap[resident], artifacts.end_cycle,
        )

    return replay_stats(cache, artifacts, pushes, **totals)


def _replay_tail(
    segment: List[list], state, constants, pushes: List[Push]
) -> Dict[str, int]:
    """Replay one tail segment reference by reference; returns its counts.

    ``state`` holds the tail sets' tag rows and per-slot lists (mutated
    in place); the counts come back by :data:`_COUNTS` name.
    """
    (set_tags, valid, dirty, stale, fill_c, expiry, recency,
     next_expiry) = state
    retention, lifetime, live_by_set, count, aware, write_back, n_ways = (
        constants
    )
    dsp = live_by_set is not None
    INF = math.inf
    hits = misses_cold = misses_expired = misses_dead = writebacks = 0
    expiry_wb = write_throughs = l2_acc = line_refreshes = fills = 0

    for i, r, cyc, tag, wr in zip(*segment):
        base = r * n_ways
        row = set_tags[r]

        # Lazy per-set expiry sweep, skipped while nothing can expire.
        recent = None
        if cyc >= next_expiry[r]:
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
                            pushes.append((i, w, ecyc))
                            dirty[j] = False
                        if aware:
                            valid[j] = False
                            row[w] = -1
                        else:
                            stale[j] = True
                    elif e < nxt:
                        nxt = e
            next_expiry[r] = nxt

        # Hits vastly outnumber misses, so a single ``index`` scan
        # with an exception fallback beats ``in`` + ``index``.
        try:
            way = base + row.index(tag)
        except ValueError:
            way = -1

        if wr and not write_back:
            # Write-through, no-write-allocate store path.
            write_throughs += 1
            pushes.append((i, n_ways, cyc))
            if way >= 0 and not stale[way]:
                recency[way] = i
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
                if e < next_expiry[r]:
                    next_expiry[r] = e
                recency[way] = i
                fills += 1
                continue
            hits += 1
            recency[way] = i
            if wr:
                dirty[way] = True
            continue

        # Miss: classify by whether the tag was resident-but-expired.
        expired = recent is not None and tag in recent
        l2_acc += 1
        if dsp:
            candidates = live_by_set[r]
            if not candidates:
                misses_dead += 1
                continue
        else:
            candidates = range(base, base + n_ways)
        victim = -1
        for j in candidates:
            if not valid[j]:
                victim = j
                break
        if victim < 0:
            best_r = INF
            for j in candidates:
                if recency[j] < best_r:
                    victim = j
                    best_r = recency[j]
            # Evict (a stale victim already settled its refreshes and
            # write-back).
            if not stale[victim]:
                if count:
                    line_refreshes += count(
                        cyc - fill_c[victim], retention[victim]
                    )
                if dirty[victim]:
                    writebacks += 1
                    pushes.append((i, n_ways, cyc))
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
        if e < next_expiry[r]:
            next_expiry[r] = e
        recency[victim] = i
        fills += 1

    return dict(zip(_COUNTS, (
        hits, misses_cold, misses_expired, misses_dead, writebacks,
        expiry_wb, write_throughs, l2_acc, fills, line_refreshes,
    )))


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
    "LOCKSTEP_MIN_SETS",
    "LockstepPlan",
    "TraceArtifacts",
    "simulate_trace",
    "kernel_support",
    "evaluate_many",
    "evaluate",
]
