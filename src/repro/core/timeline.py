"""The RSP timeline replay kernel and the bookkeeping both kernels share.

:mod:`repro.core.batcheval`'s flattened kernel covers stationary
placement (LRU/DSP) with closed-form refresh accounting.  RSP-FIFO and
RSP-LRU move blocks between ways, which that kernel cannot express, so
they replay here, **bit-identically** to
``RetentionAwareCache.run_trace``, in :func:`_replay_rsp_sets`.

RSP never reads recency and every interaction is set-local, so the
trace's columnar form (:meth:`TraceArtifacts.set_streams`) is replayed
one set at a time over position-space state (slot ``p`` = the ``p``-th
longest-retention live way).  Per-line retention-expiry timelines are
precomputed as interval arithmetic: a single ``next_expiry`` bound per
set makes the "is this line still alive?" check one compare, and warm-up
is a per-set counter snapshot instead of a mid-trace reset.

Both kernels differ only in how they place blocks.  The rest of the
replay is one copy, here:

* :class:`LineConstants` -- per-line arrays of quantised retention,
  effective lifetime and refresh cap, and the one lazy refresh-count
  rule every accounting site applies (:func:`refreshes` over arrays,
  ``refresh_count`` for one line); :func:`retention_order` ranks each
  set's ways by retention;
* the write buffer -- during the pass a kernel only records each push as
  ``(reference index, emission order, cycle)``;
  :func:`write_buffer_stalls` replays the records afterwards through
  :class:`~repro.cache.l2.WriteBuffer` itself (stalls never move a
  reference's cycle, so the buffer is the one global coupling that can
  wait until the end);
* finalize -- :func:`owed_refreshes` charges resident lines for the
  refreshes they are still owed, and :func:`replay_stats` adds the
  global scheme's passes (``GlobalRefresh.passes_in_window``), the
  blocked cycles, and the loads/stores counted from the columnar write
  flags.

Like the flattened kernel, this one treats the passed cache as a
read-only configuration source.  Caches with a token refresh engine or a
real L2 never reach it: :func:`~repro.core.batcheval.kernel_support`
sends them to the event controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Tuple,
)

import numpy as np

from repro.cache.l2 import WriteBuffer
from repro.cache.refresh import (
    FullRefresh, GlobalRefresh, PartialRefresh, RefreshPolicy,
)
from repro.cache.replacement import RSPLRUPolicy
from repro.cache.stats import CacheStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.config import CacheConfig
    from repro.cache.controller import RetentionAwareCache
    from repro.core.batcheval import TraceArtifacts

#: ``count(age, retention)``: refreshes a line spent while it lived ``age``
#: cycles (a negative age counts as zero, as in the controller).
RefreshCount = Callable[[int, int], int]

#: One write-buffer push: (global reference index, emission order, cycle).
Push = Tuple[int, int, int]


#: The cap of a line whose refreshes are unlimited (full refresh).
_NO_CAP = int(np.iinfo(np.int64).max)


def _refresh_caps(
    refresh: RefreshPolicy, retentions: List[int]
) -> Optional[List[int]]:
    """The most refreshes a line of each retention may be charged.

    ``None`` when the policy charges no per-line refreshes (no-refresh,
    and global refresh, which is charged per pass at finalize).
    """
    if type(refresh) is FullRefresh:
        return [_NO_CAP] * len(retentions)
    if type(refresh) is PartialRefresh:
        return [refresh.max_refreshes(r) for r in retentions]
    return None


def _refresh_counter(caps: Dict[int, int]) -> RefreshCount:
    """``refresh.refresh_count`` specialised to a chip's retentions."""

    def count(age: int, r: int) -> int:
        if age <= 0 or r <= 0:
            return 0
        performed = age // r
        cap = caps[r]
        return cap if performed > cap else performed

    return count


def refreshes(
    ages: np.ndarray, retention: np.ndarray, cap: np.ndarray
) -> np.ndarray:
    """Vectorised ``count``: the refreshes of lines that lived ``ages``."""
    performed = np.maximum(ages, 0) // np.maximum(retention, 1)
    return np.minimum(np.where(retention > 0, performed, 0), cap)


@dataclass(frozen=True)
class LineConstants:
    """The per-line constants both kernels read, built once per replay.

    Every array is line-major (``set * ways + way``): ``retention`` is
    the quantised retention (``int64``), ``lifetime`` its effective
    lifetime under the cache's refresh policy (``float64``), and ``cap``
    the most refreshes the line may be charged (``None`` when the policy
    charges none per line).  ``refresh_count`` is the same rule for one
    line at a time, for the kernels' scalar loops.
    """

    retention: np.ndarray
    lifetime: np.ndarray
    cap: Optional[np.ndarray]
    refresh_count: Optional[RefreshCount]

    @classmethod
    def of(cls, cache: "RetentionAwareCache") -> "LineConstants":
        retention = cache.retention_grid.reshape(-1)
        # A b-bit counter admits at most 2**b distinct retentions, so the
        # policy is asked once per distinct value.
        distinct = np.unique(retention)
        inverse = np.searchsorted(distinct, retention)
        values = distinct.tolist()
        refresh = cache.refresh
        lifetime = np.array(
            [refresh.effective_lifetime(r) for r in values], dtype=np.float64
        )[inverse]
        caps = _refresh_caps(refresh, values)
        if caps is None:
            return cls(retention, lifetime, None, None)
        return cls(
            retention, lifetime,
            np.array(caps, dtype=np.int64)[inverse],
            _refresh_counter(dict(zip(values, caps))),
        )


def retention_order(grid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each set's ways by descending retention, and its live count.

    ``grid`` is a ``(sets, ways)`` retention array.  Row ``s`` of the
    order lists set ``s``'s ways sorted by ``(-retention, way)``; its
    first ``n_live[s]`` entries are the live (retention > 0) ways, the
    controller's ``SetState.retention_order``.
    """
    order = np.argsort(-grid, axis=1, kind="stable")
    return order, np.count_nonzero(grid > 0, axis=1)


def owed_refreshes(
    expiry: np.ndarray,
    fill: np.ndarray,
    retention: np.ndarray,
    cap: np.ndarray,
    end_cycle: int,
) -> int:
    """Refreshes the given resident lines still owe at ``end_cycle``.

    The controller's ``finalize``: a resident line is charged for its
    life up to the end of the window or its expiry, whichever is first.
    """
    cutoff = np.minimum(expiry, end_cycle).astype(np.int64)
    return int(refreshes(cutoff - fill, retention, cap).sum())


def write_buffer_stalls(
    config: "CacheConfig", pushes: List[Push], warmup: int
) -> int:
    """Replay the recorded pushes through the L1's write buffer.

    Sorted, the records are the controller's push sequence: a reference
    index orders pushes across sets, and the emission order orders the
    pushes one reference makes.  The buffer keeps its state across the
    warmup split, but only pushes at or after the split count stalls
    (the controller resets its counters there).
    """
    buffer = WriteBuffer.for_config(config)
    stalls = 0
    for index, _order, cycle in sorted(pushes):
        stall = buffer.push(cycle)
        if index >= warmup:
            stalls += stall
    return stalls


def replay_stats(
    cache: "RetentionAwareCache",
    artifacts: "TraceArtifacts",
    pushes: List[Push],
    *,
    line_refreshes: int,
    line_moves: int = 0,
    **counts: int,
) -> CacheStats:
    """Finalize one kernel replay into the controller's :class:`CacheStats`.

    ``line_refreshes`` and ``line_moves`` are the measured per-line
    refreshes (owed ones included) and RSP block moves; ``counts`` are
    the remaining placement counters, by field name.  Blocked cycles
    follow from the counts, the global scheme's passes from the window,
    and loads/stores from the write flags past the warmup split.
    """
    geometry = cache.config.geometry
    cpl = geometry.refresh_cycles_per_line
    blocked = line_refreshes * cpl
    refresh = cache.refresh
    if type(refresh) is GlobalRefresh:
        passes = refresh.passes_in_window(artifacts.end_cycle)
        line_refreshes += passes * geometry.n_lines
        blocked += passes * refresh.pass_cycles
    n = len(artifacts)
    warm = artifacts.warmup_references
    measured_from = min(warm, n)
    stores = int(np.count_nonzero(artifacts.columns["write"][measured_from:]))
    return CacheStats(
        loads=(n - measured_from) - stores,
        stores=stores,
        line_refreshes=line_refreshes,
        refresh_blocked_cycles=blocked,
        line_moves=line_moves,
        move_blocked_cycles=line_moves * cpl,
        write_buffer_stall_cycles=write_buffer_stalls(
            cache.config, pushes, warm
        ),
        **counts,
    )


def _replay_rsp_sets(
    cache: "RetentionAwareCache", artifacts: "TraceArtifacts"
) -> CacheStats:
    """RSP-FIFO / RSP-LRU, one set at a time; called via ``simulate_trace``.

    Validation (RSP placement, no devices, fresh cache, matching
    geometry) happens in the dispatcher.
    """
    promote = type(cache.replacement) is RSPLRUPolicy
    config = cache.config
    n_sets = config.geometry.n_sets
    n_ways = config.geometry.ways
    write_back = config.write_back

    lines = LineConstants.of(cache)
    retention = lines.retention.tolist()
    lifetime = lines.lifetime.tolist()
    count = lines.refresh_count
    orders, n_lives = retention_order(
        lines.retention.reshape(n_sets, n_ways)
    )

    INF = math.inf
    streams = artifacts.set_streams()

    # Global (whole-trace) accumulators; per-set counters merge into
    # them with their pre-warmup prefix subtracted (every counter is
    # monotone within a set, so a snapshot at the warmup split is exact).
    g_hits = g_mc = g_me = g_md = 0
    g_wb = g_ewb = g_wt = g_l2a = g_lref = g_moves = g_fills = 0

    # Write-buffer pushes, replayed in program order after the pass.
    pushes: List[Push] = []
    # Resident lines at the end, as (line, fill cycle, expiry) columns.
    resident: Tuple[List[int], List[int], List[float]] = ([], [], [])

    for s in range(n_sets):
        stream = streams[s]
        if stream is None:
            continue
        base = s * n_ways
        n_live = int(n_lives[s])
        order = orders[s, :n_live].tolist()
        slot_lines = [base + w for w in order]
        retp = [retention[j] for j in slot_lines]
        life = [lifetime[j] for j in slot_lines]
        # Expiry sweeps visit ways in way-index order, like the controller.
        sweep_pos = sorted(range(n_live), key=lambda p: order[p])

        # Position-space line state: slot p holds the block currently in
        # the p-th longest-retention live way (-1 = invalid).
        prow = [-1] * n_live
        pdirty = [False] * n_live
        pfill = [0] * n_live
        pexp = [0.0] * n_live
        nxt_exp = INF

        ticks_s, cycs, tags_s, wrs_s, split = stream
        n_acc = len(cycs)
        h = mc = me = md = wb = ewb = wt = l2a = lref = mv = fl = 0
        # Counter snapshot at the warmup split.
        snap = None
        if split <= 0:
            snap = (0,) * 11
            segments = ((0, n_acc),)
        elif split < n_acc:
            segments = ((0, split), (split, n_acc))
        else:
            segments = ((0, n_acc),)

        def _promote(position, cyc):
            """RSPLRUPolicy.on_hit + controller.promote_line, slot-space."""
            nonlocal mv, nxt_exp, lref
            stash_tag = prow[position]
            stash_dirty = pdirty[position]
            prow[position] = -1
            for i in range(position, 0, -1):
                src = i - 1
                tag_src = prow[src]
                if tag_src >= 0:
                    if count:
                        lref += count(cyc - pfill[src], retp[src])
                    prow[i] = tag_src
                    prow[src] = -1
                    pdirty[i] = pdirty[src]
                    pdirty[src] = False
                    pfill[i] = cyc
                    e2 = cyc + life[i]
                    pexp[i] = e2
                    if e2 < nxt_exp:
                        nxt_exp = e2
                    mv += 1
            prow[0] = stash_tag
            pdirty[0] = stash_dirty
            pfill[0] = cyc
            e2 = cyc + life[0]
            pexp[0] = e2
            if e2 < nxt_exp:
                nxt_exp = e2
            mv += 1

        for a, b in segments:
            if a:
                # Measurement begins: snapshot the warmup prefix.
                snap = (h, mc, me, md, wb, ewb, wt, l2a, lref, mv, fl)
            for tck, cyc, tag, wr in zip(
                ticks_s[a:b], cycs[a:b], tags_s[a:b], wrs_s[a:b]
            ):
                # Lazy expiry sweep (interval arithmetic on timelines).
                recent = None
                if cyc >= nxt_exp:
                    nxt = INF
                    for p in sweep_pos:
                        if prow[p] >= 0:
                            e = pexp[p]
                            if cyc >= e:
                                if recent is None:
                                    recent = {prow[p]}
                                else:
                                    recent.add(prow[p])
                                if count:
                                    lref += count(int(e) - pfill[p], retp[p])
                                if pdirty[p]:
                                    wb += 1
                                    ewb += 1
                                    pushes.append((tck, len(pushes), int(e)))
                                    pdirty[p] = False
                                prow[p] = -1
                            elif e < nxt:
                                nxt = e
                    nxt_exp = nxt

                if wr and not write_back:
                    # Write-through, no-write-allocate store path.
                    wt += 1
                    pushes.append((tck, len(pushes), cyc))
                    if tag in prow:
                        h += 1
                        if promote:
                            p = prow.index(tag)
                            if p:
                                _promote(p, cyc)
                    else:
                        mc += 1
                    continue

                if tag in prow:
                    h += 1
                    if promote:
                        p = prow.index(tag)
                        if p:
                            _promote(p, cyc)
                        if wr:
                            # After promotion the line sits in slot 0.
                            pdirty[0] = True
                    elif wr:
                        pdirty[prow.index(tag)] = True
                    continue

                # Miss: classify by resident-but-expired tags.
                l2a += 1
                if n_live == 0:
                    md += 1
                    continue
                expired = recent is not None and tag in recent
                # RSPFIFOPolicy.make_room: shift the chain down from the
                # deepest free slot (evicting the tail when full).
                depth = n_live - 1
                for position in range(depth, -1, -1):
                    if prow[position] < 0:
                        depth = position
                        break
                else:
                    tail = n_live - 1
                    if count:
                        lref += count(cyc - pfill[tail], retp[tail])
                    if pdirty[tail]:
                        wb += 1
                        pushes.append((tck, len(pushes), cyc))
                        pdirty[tail] = False
                    prow[tail] = -1
                    depth = tail
                for position in range(depth, 0, -1):
                    src = position - 1
                    tag_src = prow[src]
                    if tag_src >= 0:
                        if count:
                            lref += count(cyc - pfill[src], retp[src])
                        prow[position] = tag_src
                        prow[src] = -1
                        pdirty[position] = pdirty[src]
                        pdirty[src] = False
                        pfill[position] = cyc
                        e = cyc + life[position]
                        pexp[position] = e
                        if e < nxt_exp:
                            nxt_exp = e
                        mv += 1
                if expired:
                    me += 1
                else:
                    mc += 1
                prow[0] = tag
                pdirty[0] = wr
                pfill[0] = cyc
                e = cyc + life[0]
                pexp[0] = e
                if e < nxt_exp:
                    nxt_exp = e
                fl += 1

        if snap is None:
            # Every access of this set fell inside the warmup prefix.
            snap = (h, mc, me, md, wb, ewb, wt, l2a, lref, mv, fl)
        g_hits += h - snap[0]
        g_mc += mc - snap[1]
        g_me += me - snap[2]
        g_md += md - snap[3]
        g_wb += wb - snap[4]
        g_ewb += ewb - snap[5]
        g_wt += wt - snap[6]
        g_l2a += l2a - snap[7]
        g_lref += lref - snap[8]
        g_moves += mv - snap[9]
        g_fills += fl - snap[10]
        if count:
            for p in range(n_live):
                if prow[p] >= 0:
                    resident[0].append(slot_lines[p])
                    resident[1].append(pfill[p])
                    resident[2].append(pexp[p])

    if count:
        # Refreshes still owed by the resident lines (post-warmup by
        # construction: finalize runs after the reset).
        held = np.array(resident[0], dtype=np.int64)
        g_lref += owed_refreshes(
            np.array(resident[2], dtype=np.float64),
            np.array(resident[1], dtype=np.int64),
            lines.retention[held], lines.cap[held], artifacts.end_cycle,
        )

    return replay_stats(
        cache, artifacts, pushes,
        line_refreshes=g_lref,
        line_moves=g_moves,
        hits=g_hits,
        misses_cold=g_mc,
        misses_expired=g_me,
        misses_dead_bypass=g_md,
        writebacks=g_wb,
        expiry_writebacks=g_ewb,
        write_throughs=g_wt,
        l2_accesses=g_l2a,
        fills=g_fills,
    )
