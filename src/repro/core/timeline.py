"""The RSP timeline replay kernel.

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
is a per-set counter snapshot instead of a mid-trace reset.  Cross-set
effects -- the single shared write buffer -- are reconciled afterwards
by replaying the collected write-back events in global program order.

Like the flattened kernel, this one treats the passed cache as a
read-only configuration source.  Caches with a token refresh engine or a
real L2 never reach it: :func:`~repro.core.batcheval.kernel_support`
sends them to the event controller.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.cache.refresh import FullRefresh, GlobalRefresh, PartialRefresh
from repro.cache.replacement import RSPLRUPolicy
from repro.cache.stats import CacheStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.controller import RetentionAwareCache
    from repro.core.batcheval import TraceArtifacts


def _replay_rsp_sets(
    cache: "RetentionAwareCache", artifacts: "TraceArtifacts"
) -> CacheStats:
    """RSP-FIFO / RSP-LRU, one set at a time; called via ``simulate_trace``.

    Validation (RSP placement, no devices, fresh cache, matching
    geometry) happens in the dispatcher.
    """
    promote = type(cache.replacement) is RSPLRUPolicy
    config = cache.config
    geometry = config.geometry
    n_sets = geometry.n_sets
    n_ways = geometry.ways
    refresh = cache.refresh
    write_back = config.write_back
    refresh_cpl = geometry.refresh_cycles_per_line

    retention: List[int] = [int(r) for r in cache.retention_grid.reshape(-1)]
    distinct = set(retention)
    life_by_r = {r: refresh.effective_lifetime(r) for r in distinct}
    if type(refresh) is FullRefresh:
        acc_mode = 1
        maxref_by_r = {}
    elif type(refresh) is PartialRefresh:
        acc_mode = 2
        maxref_by_r = {r: refresh.max_refreshes(r) for r in distinct}
    else:  # NoRefresh / GlobalRefresh: zero per-line refreshes
        acc_mode = 0
        maxref_by_r = {}

    INF = math.inf
    warm = artifacts.warmup_references
    end_cycle = artifacts.end_cycle
    streams = artifacts.set_streams()

    # Global (whole-trace) accumulators; per-set counters merge into
    # them with their pre-warmup prefix subtracted (every counter is
    # monotone within a set, so a snapshot at the warmup split is exact).
    g_hits = g_mc = g_me = g_md = 0
    g_wb = g_ewb = g_wt = g_l2a = g_lref = g_rblk = 0
    g_moves = g_mblk = g_fills = 0

    # Write-back arrivals (global reference index, emission order, cycle)
    # for the shared write buffer, replayed in program order afterwards.
    push_events: List[Tuple[int, int, int]] = []
    seq = 0

    for s in range(n_sets):
        stream = streams[s]
        if stream is None:
            continue
        base = s * n_ways
        order = sorted(
            (w for w in range(n_ways) if retention[base + w] > 0),
            key=lambda w: (-retention[base + w], w),
        )
        n_live = len(order)
        retp = [retention[base + w] for w in order]
        life = [life_by_r[r] for r in retp]
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
        h = mc = me = md = wb = ewb = wt = l2a = 0
        lref = rblk = mv = mblk = fl = 0
        # Counter snapshot at the warmup split (loads/stores are
        # state-independent and counted globally from the columnar
        # write flags instead).
        snap = None
        if split <= 0:
            snap = (0,) * 13
            segments = ((0, n_acc),)
        elif split < n_acc:
            segments = ((0, split), (split, n_acc))
        else:
            segments = ((0, n_acc),)

        def _promote(position, cyc):
            """RSPLRUPolicy.on_hit + controller.promote_line, slot-space."""
            nonlocal mv, mblk, nxt_exp, lref, rblk
            stash_tag = prow[position]
            stash_dirty = pdirty[position]
            prow[position] = -1
            for i in range(position, 0, -1):
                src = i - 1
                tag_src = prow[src]
                if tag_src >= 0:
                    if acc_mode:
                        age = cyc - pfill[src]
                        if age < 0:
                            age = 0
                        r = retp[src]
                        count = age // r
                        if acc_mode == 2:
                            cap = maxref_by_r[r]
                            if count > cap:
                                count = cap
                        if count:
                            lref += count
                            rblk += count * refresh_cpl
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
                    mblk += refresh_cpl
            prow[0] = stash_tag
            pdirty[0] = stash_dirty
            pfill[0] = cyc
            e2 = cyc + life[0]
            pexp[0] = e2
            if e2 < nxt_exp:
                nxt_exp = e2
            mv += 1
            mblk += refresh_cpl

        for a, b in segments:
            if a:
                # Measurement begins: snapshot the warmup prefix.
                snap = (h, mc, me, md, wb, ewb, wt, l2a,
                        lref, rblk, mv, mblk, fl)
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
                                if acc_mode:
                                    age = int(e) - pfill[p]
                                    if age < 0:
                                        age = 0
                                    r = retp[p]
                                    count = age // r
                                    if acc_mode == 2:
                                        cap = maxref_by_r[r]
                                        if count > cap:
                                            count = cap
                                    if count:
                                        lref += count
                                        rblk += count * refresh_cpl
                                if pdirty[p]:
                                    wb += 1
                                    ewb += 1
                                    push_events.append((tck, seq, int(e)))
                                    seq += 1
                                    pdirty[p] = False
                                prow[p] = -1
                            elif e < nxt:
                                nxt = e
                    nxt_exp = nxt

                if wr and not write_back:
                    # Write-through, no-write-allocate store path.
                    wt += 1
                    push_events.append((tck, seq, cyc))
                    seq += 1
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
                    if acc_mode:
                        age = cyc - pfill[tail]
                        if age < 0:
                            age = 0
                        r = retp[tail]
                        count = age // r
                        if acc_mode == 2:
                            cap = maxref_by_r[r]
                            if count > cap:
                                count = cap
                        if count:
                            lref += count
                            rblk += count * refresh_cpl
                    if pdirty[tail]:
                        wb += 1
                        push_events.append((tck, seq, cyc))
                        seq += 1
                        pdirty[tail] = False
                    prow[tail] = -1
                    depth = tail
                for position in range(depth, 0, -1):
                    src = position - 1
                    tag_src = prow[src]
                    if tag_src >= 0:
                        if acc_mode:
                            age = cyc - pfill[src]
                            if age < 0:
                                age = 0
                            r = retp[src]
                            count = age // r
                            if acc_mode == 2:
                                cap = maxref_by_r[r]
                                if count > cap:
                                    count = cap
                            if count:
                                lref += count
                                rblk += count * refresh_cpl
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
                        mblk += refresh_cpl
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
            snap = (h, mc, me, md, wb, ewb, wt, l2a,
                    lref, rblk, mv, mblk, fl)
        g_hits += h - snap[0]
        g_mc += mc - snap[1]
        g_me += me - snap[2]
        g_md += md - snap[3]
        g_wb += wb - snap[4]
        g_ewb += ewb - snap[5]
        g_wt += wt - snap[6]
        g_l2a += l2a - snap[7]
        g_lref += lref - snap[8]
        g_rblk += rblk - snap[9]
        g_moves += mv - snap[10]
        g_mblk += mblk - snap[11]
        g_fills += fl - snap[12]

        # Finalize: refreshes still owed by this set's resident lines
        # (post-warmup by construction: finalize runs after the reset).
        if acc_mode:
            for p in range(n_live):
                if prow[p] >= 0:
                    e = pexp[p]
                    cutoff = end_cycle if e > end_cycle else e
                    age = int(cutoff) - pfill[p]
                    if age < 0:
                        age = 0
                    r = retp[p]
                    count = age // r
                    if acc_mode == 2:
                        cap = maxref_by_r[r]
                        if count > cap:
                            count = cap
                    if count:
                        g_lref += count
                        g_rblk += count * refresh_cpl

    if type(refresh) is GlobalRefresh:
        passes = refresh.passes_in_window(end_cycle)
        g_lref += passes * geometry.n_lines
        g_rblk += passes * refresh.pass_cycles

    # loads/stores are state-independent: count them from the columnar
    # write flags instead of branching once per access in the set loops.
    n_total = len(artifacts.cycles)
    measured_from = warm if warm < n_total else n_total
    writes_col = artifacts.columnar()["write"]
    g_stores = int(np.count_nonzero(writes_col[measured_from:]))
    g_loads = (n_total - measured_from) - g_stores

    # The single shared write buffer: replay every write-back arrival in
    # program order.  Ties share a reference index only within one set,
    # so (tick, emission order) reproduces the controller's sequence.
    wb_stall = 0
    wb_queued = 0
    wb_last = 0.0
    wb_cap = config.write_buffer_entries
    wb_drain = config.l2_write_interval_cycles
    push_events.sort()
    for tick, _seq, cycle in push_events:
        if cycle < wb_last:
            cycle = wb_last
        drained = int((cycle - wb_last) // wb_drain)
        if drained:
            wb_queued -= drained
            if wb_queued < 0:
                wb_queued = 0
        wb_last = cycle
        if wb_queued >= wb_cap:
            wb_queued = wb_cap
            if tick >= warm:
                wb_stall += wb_drain
        else:
            wb_queued += 1

    return CacheStats(
        loads=g_loads,
        stores=g_stores,
        hits=g_hits,
        misses_cold=g_mc,
        misses_expired=g_me,
        misses_dead_bypass=g_md,
        writebacks=g_wb,
        expiry_writebacks=g_ewb,
        write_throughs=g_wt,
        l2_accesses=g_l2a,
        l2_hits=0,
        l2_misses=0,
        line_refreshes=g_lref,
        refresh_blocked_cycles=g_rblk,
        line_moves=g_moves,
        move_blocked_cycles=g_mblk,
        write_buffer_stall_cycles=wb_stall,
        fills=g_fills,
    )

