"""Batched scheme-evaluation kernel (the fast path behind every figure).

Every figure driver ultimately replays benchmark reference traces through
:class:`~repro.cache.controller.RetentionAwareCache`, once per
(chip x scheme x benchmark).  That event controller is the semantic
reference, but it pays interpreter overhead per memory reference.  This
module provides the production path:

* :class:`TraceArtifacts` -- per-trace columnar artifacts (a numpy
  structured array and its lockstep plan) precomputed
  **once per suite** and shared by every evaluation instead of being
  re-derived per access;
* :func:`kernel_support` -- the typed capability probe: which replay
  path (``"flattened"``, ``"timeline"``, or ``"event"``) a cache
  configuration takes, and why when it must fall back;
* :func:`simulate_trace` -- the batched replay, **bit-identical** to
  ``RetentionAwareCache.run_trace``.  Every supported cache runs one
  lockstep driver (:func:`_replay_lockstep`): it steps every set
  together over stream position (:class:`LockstepPlan`), each step one
  round of numpy operations on a (sets x ways) state, for as long as at
  least :data:`LOCKSTEP_MIN_SETS` sets are active -- which covers the
  evaluator's warmup fill, ``ways`` references per set.  The rest of
  the trace, the few hot sets' tails, replays reference by reference
  over just those sets' state.  Sets share nothing but the write buffer,
  which is replayed after the pass, so the split cannot change a
  result.  Only placement differs: LRU/DSP (path ``"flattened"``) step
  the state in way space here (:func:`_way_step`, :func:`_way_tail`),
  RSP-FIFO/RSP-LRU (path ``"timeline"``) in retention-ordered position
  space (:func:`~repro.core.timeline.rsp_step`,
  :func:`~repro.core.timeline.rsp_tail`).  Both take their per-line
  constants and refresh counts from
  :class:`~repro.core.timeline.LineConstants`, record write-buffer
  pushes during the pass and replay them afterwards through
  :class:`~repro.cache.l2.WriteBuffer`, and finalize through
  :func:`~repro.core.timeline.replay_stats`.  Caches with a token
  refresh engine, a real L2, or third-party refresh/replacement objects
  stay on the event controller;
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
    COUNTS,
    LineConstants,
    Push,
    owed_refreshes,
    refreshes,
    replay_stats,
    retention_order,
    rsp_step,
    rsp_tail,
    tally,
    tally_sum,
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
    access of every (chip, scheme) evaluation.  The kernel instead runs
    over one structured array (``columns``, :data:`COLUMN_DTYPE`),
    derived once per (trace, n_sets), and over the one regrouping of it
    cached here, :meth:`lockstep`, which every placement shares.
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

    def lockstep(self, first_touches: bool = False) -> "LockstepPlan":
        """The lockstep kernel's split of this trace, cached.

        The default plan steps while at least :data:`LOCKSTEP_MIN_SETS`
        sets are active (see :class:`LockstepPlan`).  With
        ``first_touches``, its front also ends at the first step in
        which fewer than :data:`LOCKSTEP_MIN_SETS` references touch
        their line for the first time in the trace.  RSP replays use
        that plan: a first touch always misses and shifts its set's
        chain, which a numpy step batches well, while past the warmup
        fill most references hit, and the scalar tail replays hits for
        less than a numpy step costs.  The two plans are one object
        whenever the cut changes nothing; each is built once per
        (trace, n_sets).
        """
        plans = self.__dict__.get("_lockstep")
        if plans is None:
            plans = {False: LockstepPlan.of(self)}
            object.__setattr__(self, "_lockstep", plans)
        plan = plans.get(first_touches)
        if plan is None:
            base = plans[False]
            line = self.columns["tag"] * self.n_sets + self.columns["set"]
            first = np.zeros(len(line), dtype=bool)
            first[np.unique(line, return_index=True)[1]] = True
            front = 0
            for step in base.steps:
                if np.count_nonzero(first[step[1]]) < LOCKSTEP_MIN_SETS:
                    break
                front += 1
            plan = plans[True] = (
                base if front == len(base.steps)
                else LockstepPlan.of(self, front)
            )
        return plan


#: The kernel steps every set together while at least this many sets
#: are still active; the references past that point (the hot sets'
#: tails) replay through the placement's scalar tail.
LOCKSTEP_MIN_SETS = 32


#: Recency of a dead way: later than any reference, so never the victim.
_NO_STAMP = np.iinfo(np.int64).max

#: One lockstep step: (active rows m, reference indices, measured,
#: cycles, tags, store flags), where ``measured`` is True or False when
#: every or no reference of the step is past the warmup split, else the
#: per-row mask, and cycles and tags are ``(m, 1)`` columns.
_Step = Tuple[int, np.ndarray, object, np.ndarray, np.ndarray, np.ndarray]

#: One hot row's tail references: (row, then plain-int index, cycle,
#: tag and write lists in stream order).
_RowTail = Tuple[int, list, list, list, list]


@dataclass(frozen=True, eq=False)
class LockstepPlan:
    """How the lockstep kernel walks one trace, derived once per trace.

    The kernel keeps one state row per touched set, deepest stream
    first (``sets``), so the sets still active at stream position ``k``
    are always a prefix of the rows.  ``steps[k]`` replays position
    ``k`` of every active set at once, for as long as at least
    :data:`LOCKSTEP_MIN_SETS` sets are active; the warmup fill gives
    every set ``ways`` references, so those steps cover it.  The
    remaining references belong to rows ``[:tail_rows]``, the hot sets,
    and replay one at a time, row by row: ``tail`` holds each row's
    references before the warmup split, then each row's after it.
    Rows share nothing but the write buffer, whose pushes carry their
    reference index, so a tail may replay row by row.  Every replay of
    the trace reads the same plan, so the columns each step and the tail
    read are cut here, once.
    """

    sets: np.ndarray
    steps: Tuple[_Step, ...]
    tail_rows: int
    tail: Tuple[List[_RowTail], List[_RowTail]]

    @property
    def tail_refs(self) -> int:
        """References the scalar tail replays."""
        return sum(len(row[1]) for part in self.tail for row in part)

    @property
    def lockstep_refs(self) -> int:
        """References the lockstep steps replay."""
        return sum(step[0] for step in self.steps)

    @classmethod
    def of(
        cls, artifacts: TraceArtifacts, front: Optional[int] = None
    ) -> "LockstepPlan":
        """The plan of ``front`` lockstep steps (by default, as many as
        keep :data:`LOCKSTEP_MIN_SETS` sets active)."""
        columns = artifacts.columns
        set_col = columns["set"]
        n = len(set_col)
        warm = artifacts.warmup_references
        depth = np.bincount(set_col, minlength=artifacts.n_sets)
        touched = np.flatnonzero(depth)
        sets = touched[np.argsort(-depth[touched], kind="stable")]
        row_depth = depth[sets]
        row_of = np.zeros(artifacts.n_sets, dtype=np.int64)
        row_of[sets] = np.arange(len(sets))
        if front is None:
            front = (
                int(row_depth[LOCKSTEP_MIN_SETS - 1])
                if len(sets) >= LOCKSTEP_MIN_SETS else 0
            )
        # Each reference's position within its set's stream.
        order = np.argsort(set_col, kind="stable")
        starts = np.concatenate(([0], np.cumsum(depth)[:-1]))
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n) - starts[set_col[order]]
        rows = row_of[set_col]
        cycle, tag, write = columns["cycle"], columns["tag"], columns["write"]

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
                    cycle[index][:, None], tag[index][:, None], write[index],
                ))
        tail_rows = int(np.count_nonzero(row_depth > front))
        tail = np.flatnonzero(position >= front)
        tail = tail[np.argsort(rows[tail], kind="stable")]
        bounds = np.searchsorted(rows[tail], np.arange(tail_rows + 1))
        splits = [
            int(lo + np.searchsorted(tail[lo:hi], warm))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        columns = (
            tail.tolist(), cycle[tail].tolist(), tag[tail].tolist(),
            write[tail].tolist(),
        )
        before: List[_RowTail] = []
        after: List[_RowTail] = []
        for r, (lo, split, hi) in enumerate(
            zip(bounds[:-1].tolist(), splits, bounds[1:].tolist())
        ):
            if split > lo:
                before.append((r, *(c[lo:split] for c in columns)))
            if hi > split:
                after.append((r, *(c[split:hi] for c in columns)))
        return cls(
            sets=sets,
            steps=tuple(steps),
            tail_rows=tail_rows,
            tail=(before, after),
        )


#: The replay paths :func:`kernel_support` can assign a cache to.
KERNEL_PATHS = ("flattened", "timeline", "event")


@dataclass(frozen=True)
class KernelSupport:
    """Which replay path a cache configuration takes, and why.

    ``path`` is ``"flattened"`` (the lockstep kernel with stationary
    LRU/DSP placement), ``"timeline"`` (the same kernel with RSP
    placement, :mod:`repro.core.timeline`), or ``"event"`` (the
    per-reference event controller, with ``reason`` explaining the
    fallback).  ``supported``
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
    """Run a whole trace through the lockstep kernel; returns the stats.

    ``cache`` must be a *fresh* (never accessed) simulator instance; it is
    used as the source of configuration, quantised retention, and policy
    objects, and is not mutated.  :func:`kernel_support` names the
    placement: stationary LRU/DSP placement (``"flattened"``) steps the
    replay state in way space, RSP placement (``"timeline"``) in
    position space (:func:`~repro.core.timeline.rsp_step`); both run the
    same lockstep driver over :meth:`TraceArtifacts.lockstep`.  The
    returned :class:`CacheStats` is bit-identical to ``cache.run_trace``
    on the same trace for every supported configuration; an unsupported
    cache (a device-coupled one, for instance) raises
    :class:`~repro.errors.ConfigurationError`.
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
    rsp = support.path == "timeline"
    plan = artifacts.lockstep(first_touches=rsp)
    with _trace_span(
        "core.timeline.replay" if rsp else "core.batcheval.flattened",
        cat="replay",
        lockstep_refs=plan.lockstep_refs, tail_refs=plan.tail_refs,
    ):
        return _replay_lockstep(cache, artifacts, plan, rsp)


class _Lockstep:
    """One replay's (rows x ways) state, stepped by a placement step.

    Row ``r`` is set ``plan.sets[r]``; its slot ``q`` (flat index
    ``r * ways + q``) is way ``q`` of that set in way space (LRU/DSP),
    and its ``q``-th longest-retention way, ``way_of[r, q]``, in RSP's
    position space, where the first ``n_live[r]`` slots (``live``) are
    the set's live ways.  ``retention``, ``lifetime`` and ``cap``
    are the slots' :class:`~repro.core.timeline.LineConstants`.  An
    invalid slot holds tag -1; invalid and stale slots hold expiry
    +inf, so one compare finds the lines a sweep expires.  ``totals``
    are the measured counts by :data:`~repro.core.timeline.COUNTS`
    name, ``push_cols`` the write-buffer pushes as (index, emission
    order, cycle) columns.
    """

    def __init__(
        self, cache: RetentionAwareCache, plan: LockstepPlan, rsp: bool
    ):
        config = cache.config
        ways = self.ways = config.geometry.ways
        self.write_back = config.write_back
        self.aware = cache.replacement.uses_retention_info
        self.rsp = rsp
        self.dsp = type(cache.replacement) is DSPPolicy
        self.promote = type(cache.replacement) is RSPLRUPolicy
        lines = LineConstants.of(cache)
        self.count = lines.refresh_count
        n_rows = len(plan.sets)
        shape = (n_rows, ways)
        way_of = np.arange(ways)
        if self.dsp or rsp:
            # Ways in the controller's (-retention, way) order: DSP's
            # victim candidates, RSP's chain.
            order, self.n_live = retention_order(
                lines.retention.reshape(-1, ways)[plan.sets]
            )
            self.live = way_of < self.n_live[:, None]
            if rsp:
                way_of = self.way_of = order
            else:
                self.cand = order
        line = (plan.sets[:, None] * ways + way_of).reshape(-1)
        self.retention = lines.retention[line]
        self.lifetime = lines.lifetime[line]
        self.cap = lines.cap[line] if self.count else None

        n_slots = n_rows * ways
        self.tags = np.full(n_slots, -1, dtype=np.int64)
        self.dirty = np.zeros(n_slots, dtype=bool)
        self.stale = np.zeros(n_slots, dtype=bool)
        self.fill = np.zeros(n_slots, dtype=np.int64)
        self.expiry = np.full(n_slots, np.inf)
        self.recency = np.zeros(n_slots, dtype=np.int64)  # reference index
        self.tags2 = self.tags.reshape(shape)
        self.expiry2 = self.expiry.reshape(shape)
        self.slot0 = np.arange(n_rows, dtype=np.int64) * ways
        self.totals = dict.fromkeys(COUNTS, 0)
        self.push_cols: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def sweep(self, m, index, measured, cyc, tag) -> Optional[np.ndarray]:
        """Expire the first ``m`` rows' due lines, as the controller's
        sweep does; returns the rows whose own tag just expired (an
        expired, not cold, miss), or None when nothing was due."""
        due = self.expiry2[:m] <= cyc
        if not due.any():
            return None
        er, eq = due.nonzero()
        es = self.slot0[er] + eq
        ecyc = self.expiry[es].astype(np.int64)
        lost = np.zeros(m, dtype=bool)
        lost[er[self.tags[es] == tag[er, 0]]] = True
        totals = self.totals
        if self.count:
            totals["line_refreshes"] += tally_sum(measured, er, refreshes(
                ecyc - self.fill[es], self.retention[es], self.cap[es]
            ))
        d = self.dirty[es]
        if d.any():
            k = tally(measured, er[d])
            totals["writebacks"] += k
            totals["expiry_writebacks"] += k
            # An access's expiry pushes go out in way order.
            way = self.way_of[er[d], eq[d]] if self.rsp else eq[d]
            self.push_cols.append((index[er[d]], way, ecyc[d]))
            self.dirty[es[d]] = False
        if self.aware:
            self.tags[es] = -1
        else:
            self.stale[es] = True
        self.expiry[es] = np.inf
        return lost

    def write_through(self, index, measured, cyc, wr, live_hit) -> None:
        """Push the step's write-through stores, which never allocate:
        a store that misses is a cold miss, a live hit counts as a hit
        (by the placement step)."""
        wt = np.flatnonzero(wr)
        self.totals["write_throughs"] += tally(measured, wt)
        self.push_cols.append((
            index[wt], np.full(len(wt), self.ways, dtype=np.int64),
            cyc[wt, 0],
        ))
        self.totals["misses_cold"] += tally(measured, wt[~live_hit[wt]])


def _replay_lockstep(
    cache: RetentionAwareCache,
    artifacts: TraceArtifacts,
    plan: LockstepPlan,
    rsp: bool,
) -> CacheStats:
    """The one replay driver behind :func:`simulate_trace`.

    Sets are independent apart from the write buffer, whose pushes are
    recorded and replayed after the pass, so each set only has to see
    its own references in order.  Each lockstep step replays stream
    position ``k`` of every active set with one round of numpy
    operations: the shared expiry sweep, then the placement's step
    (:func:`_way_step` or :func:`~repro.core.timeline.rsp_step`).  The
    hot sets' tails then replay set by set through the placement's
    scalar tail, over the state of just those sets.
    """
    st = _Lockstep(cache, plan, rsp)
    step = rsp_step if rsp else _way_step
    for m, index, measured, cyc, tag, wr in plan.steps:
        lost = st.sweep(m, index, measured, cyc, tag)
        step(st, m, index, measured, cyc, tag, wr, lost)

    pushes: List[Push] = []
    for cols in st.push_cols:
        pushes.extend(zip(*(col.tolist() for col in cols)))

    if plan.tail_refs:
        tail = rsp_tail if rsp else _way_tail
        counts = tail(st, plan.tail_rows, plan.tail, pushes)
        for key, value in counts.items():
            st.totals[key] += value

    if st.count:
        resident = (st.tags >= 0) & ~st.stale
        st.totals["line_refreshes"] += owed_refreshes(
            st.expiry[resident], st.fill[resident], st.retention[resident],
            st.cap[resident], artifacts.end_cycle,
        )
    return replay_stats(cache, artifacts, pushes, **st.totals)


def _way_step(st: _Lockstep, m, index, measured, cyc, tag, wr, lost) -> None:
    """Place one stream position of the first ``m`` rows, LRU/DSP-style.

    The victim is the first invalid way, else the least recently used
    one, over the ways in way order (LRU) or in ``(-retention, way)``
    order among the live ways (DSP).
    """
    ways = st.ways
    totals = st.totals
    tags, dirty, stale, fill = st.tags, st.dirty, st.stale, st.fill
    expiry, recency, slot0 = st.expiry, st.recency, st.slot0
    match = st.tags2[:m] == tag
    hit = match.any(1)
    hs = slot0[:m] + match.argmax(1)
    stale_hit = hit & stale[hs]
    live_hit = hit & ~stale_hit
    miss = ~hit
    if not st.write_back and wr.any():
        st.write_through(index, measured, cyc, wr, live_hit)
        stale_hit &= ~wr
        miss &= ~wr

    hr = np.flatnonzero(live_hit)
    if len(hr):
        totals["hits"] += tally(measured, hr)
        recency[hs[hr]] = index[hr]
        if st.write_back:
            dirty[hs[hr[wr[hr]]]] = True

    if stale_hit.any():
        # Expired miss: the line refills in place from the L2.
        rr = np.flatnonzero(stale_hit)
        k = tally(measured, rr)
        totals["misses_expired"] += k
        totals["l2_accesses"] += k
        totals["fills"] += k
        rs = hs[rr]
        c = cyc[rr, 0]
        stale[rs] = False
        dirty[rs] = wr[rr]
        fill[rs] = c
        expiry[rs] = c + st.lifetime[rs]
        recency[rs] = index[rr]

    mr = np.flatnonzero(miss)
    if not len(mr):
        return
    totals["l2_accesses"] += tally(measured, mr)
    if st.dsp:
        dead = st.n_live[mr] == 0
        if dead.any():
            totals["misses_dead_bypass"] += tally(measured, mr[dead])
            mr = mr[~dead]
            if not len(mr):
                return
        slots = slot0[mr, None] + st.cand[mr]
        free = (tags[slots] < 0) & st.live[mr]
    else:
        slots = slot0[mr, None] + np.arange(ways)
        free = tags[slots] < 0
    pick = free.argmax(1)
    span = np.arange(len(mr))
    full = ~free[span, pick]
    if full.any():
        # No free candidate: evict the least recently used one.
        fr = np.flatnonzero(full)
        held = recency[slots[fr]]
        if st.dsp:
            held = np.where(st.live[mr[fr]], held, _NO_STAMP)
        pick[fr] = held.argmin(1)
        vs = slots[fr, pick[fr]]
        er = mr[fr]
        # A stale victim already settled its refreshes and write-back.
        fresh = ~stale[vs]
        if st.count:
            ev = vs[fresh]
            totals["line_refreshes"] += tally_sum(
                measured, er[fresh], refreshes(
                    cyc[er[fresh], 0] - fill[ev], st.retention[ev],
                    st.cap[ev],
                ),
            )
        d = fresh & dirty[vs]
        if d.any():
            totals["writebacks"] += tally(measured, er[d])
            st.push_cols.append((
                index[er[d]], np.full(int(d.sum()), ways, dtype=np.int64),
                cyc[er[d], 0],
            ))
    vs = slots[span, pick]
    if lost is None:
        totals["misses_cold"] += tally(measured, mr)
    else:
        totals["misses_expired"] += tally(measured, mr[lost[mr]])
        totals["misses_cold"] += tally(measured, mr[~lost[mr]])
    totals["fills"] += tally(measured, mr)
    c = cyc[mr, 0]
    tags[vs] = tag[mr, 0]
    stale[vs] = False
    dirty[vs] = wr[mr]
    fill[vs] = c
    expiry[vs] = c + st.lifetime[vs]
    recency[vs] = index[mr]


def _way_tail(
    st: _Lockstep, n_rows: int, segments, pushes: List[Push]
) -> Dict[str, int]:
    """Replay the hot rows' tails in way space; returns the measured
    segment's counts.  The first ``n_rows`` rows' state goes to plain
    lists and back."""
    ways = st.ways
    n = n_rows * ways
    state = (
        st.tags2[:n_rows].tolist(),
        (st.tags[:n] >= 0).tolist(),
        st.dirty[:n].tolist(),
        st.stale[:n].tolist(),
        st.fill[:n].tolist(),
        st.expiry[:n].tolist(),
        st.recency[:n].tolist(),
        st.expiry2[:n_rows].min(1).tolist(),
    )
    live_by_set = (
        [
            [r * ways + w for w in st.cand[r, :st.n_live[r]].tolist()]
            for r in range(n_rows)
        ]
        if st.dsp else None
    )
    constants = (
        st.retention[:n].tolist(), st.lifetime[:n].tolist(),
        live_by_set, st.count, st.aware, st.write_back, ways,
    )
    warm, measured = segments
    _replay_tail(warm, state, constants, pushes)
    counts = _replay_tail(measured, state, constants, pushes)
    st.tags2[:n_rows] = state[0]
    st.stale[:n] = state[3]
    st.fill[:n] = state[4]
    st.expiry[:n] = state[5]
    return counts


def _replay_tail(
    rows: List[_RowTail], state, constants, pushes: List[Push]
) -> Dict[str, int]:
    """Replay tail rows reference by reference; returns their counts.

    ``state`` holds the tail sets' tag rows and per-slot lists (mutated
    in place); the counts come back by
    :data:`~repro.core.timeline.COUNTS` name.
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

    for r, indices, cycles, tags, writes in rows:
        base = r * n_ways
        row = set_tags[r]
        for i, cyc, tag, wr in zip(indices, cycles, tags, writes):
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

    return dict(zip(COUNTS, (
        hits, misses_cold, misses_expired, misses_dead, writebacks,
        expiry_wb, write_throughs, l2_acc, fills, line_refreshes, 0,
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
