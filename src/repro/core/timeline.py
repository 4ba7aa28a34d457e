"""RSP placement for the lockstep replay, and the bookkeeping both
placements share.

:func:`repro.core.batcheval.simulate_trace` replays every kernel-eligible
cache through one lockstep driver: while at least
:data:`~repro.core.batcheval.LOCKSTEP_MIN_SETS` sets are active it steps
a (sets x ways) numpy state one stream position at a time, then replays
the hot sets' tails one reference at a time.  Stationary placement
(LRU/DSP) steps that state in way space.  RSP-FIFO and RSP-LRU move
blocks between ways, so they step it in *position space*, here: slot
``p`` of a row holds the block in the set's ``p``-th longest-retention
live way (:func:`retention_order`), and the row's first ``n_live``
slots are its live ways.

* :func:`rsp_step` -- one lockstep step.  A miss shifts slots
  ``[0, depth)`` down by one and fills slot 0, where ``depth`` is the
  deepest free live slot, or the tail slot when the row is full (the
  tail is evicted first); an RSP-LRU hit at ``p > 0`` shifts ``[0, p)``
  the same way and lands the hit block in slot 0.  Each valid block
  that moves counts one move, restarts its retention clock and is
  charged its refreshes; invalid slots carry along as invalid, as in the
  controller's chain.
* :func:`rsp_tail` -- the same rules for the hot rows' tails, one
  reference at a time over plain lists, row by row.

RSP's lockstep front is the trace's plan cut at the first step with
fewer than ``LOCKSTEP_MIN_SETS`` first touches
(:meth:`~repro.core.batcheval.TraceArtifacts.lockstep` with
``first_touches``): a numpy step pays for itself on the chain shifts of
misses, as in the warmup fill, while the scalar tail replays hits more
cheaply.

Both are **bit-identical** to ``RetentionAwareCache.run_trace``.  The
rest of a replay is one copy, shared with the way-space placement:

* :class:`LineConstants` -- per-line arrays of quantised retention,
  effective lifetime and refresh cap, and the one lazy refresh-count
  rule every accounting site applies (:func:`refreshes` over arrays,
  ``refresh_count`` for one line); :func:`retention_order` ranks each
  set's ways by retention;
* the write buffer -- during the pass a replay only records each push as
  ``(reference index, emission order, cycle)``, the emission order
  being the way index of an expiry push and ``ways`` for an eviction or
  a write-through store; :func:`write_buffer_stalls` replays the
  records afterwards through :class:`~repro.cache.l2.WriteBuffer`
  itself (stalls never move a reference's cycle, so the buffer is the
  one global coupling that can wait until the end);
* finalize -- :func:`owed_refreshes` charges resident lines for the
  refreshes they are still owed, and :func:`replay_stats` adds the
  global scheme's passes (``GlobalRefresh.passes_in_window``), the
  blocked cycles, and the loads/stores counted from the columnar write
  flags.

Caches with a token refresh engine or a real L2 never reach a kernel:
:func:`~repro.core.batcheval.kernel_support` sends them to the event
controller.
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
from repro.cache.stats import CacheStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.config import CacheConfig
    from repro.cache.controller import RetentionAwareCache
    from repro.core.batcheval import TraceArtifacts, _Lockstep

#: ``count(age, retention)``: refreshes a line spent while it lived ``age``
#: cycles (a negative age counts as zero, as in the controller).
RefreshCount = Callable[[int, int], int]

#: One write-buffer push: (global reference index, emission order, cycle).
Push = Tuple[int, int, int]


#: The counters a replay keeps, by :class:`CacheStats` field.
COUNTS = (
    "hits", "misses_cold", "misses_expired", "misses_dead_bypass",
    "writebacks", "expiry_writebacks", "write_throughs", "l2_accesses",
    "fills", "line_refreshes", "line_moves",
)

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


def tally(measured, rows: np.ndarray) -> int:
    """How many of a lockstep step's ``rows`` are past the warmup split.

    ``measured`` is True or False when every or no reference of the step
    is past the split, else the step's per-row mask.
    """
    if measured is True:
        return len(rows)
    if measured is False:
        return 0
    return int(np.count_nonzero(measured[rows]))


def tally_sum(measured, rows: np.ndarray, values: np.ndarray) -> int:
    """The sum of ``values`` over the ``rows`` past the warmup split."""
    if measured is True:
        return int(values.sum())
    if measured is False:
        return 0
    return int(values[measured[rows]].sum())


def rsp_step(
    st: "_Lockstep",
    m: int,
    index: np.ndarray,
    measured,
    cyc: np.ndarray,
    tag: np.ndarray,
    wr: np.ndarray,
    lost: Optional[np.ndarray],
) -> None:
    """Place one stream position of the first ``m`` rows, RSP-style.

    Runs after the driver's expiry sweep; ``cyc``/``tag`` are ``(m, 1)``
    columns, ``wr`` the store flags and ``lost`` the rows whose own tag
    that sweep expired.
    """
    totals = st.totals
    tags, dirty, fill = st.tags, st.dirty, st.fill
    slot0 = st.slot0[:m]
    match = st.tags2[:m] == tag
    hit = match.any(1)
    pos = match.argmax(1)
    miss = ~hit
    if not st.write_back and wr.any():
        st.write_through(index, measured, cyc, wr, hit)
        miss &= ~wr

    hr = np.flatnonzero(hit)
    if len(hr):
        totals["hits"] += tally(measured, hr)
        if st.write_back:
            stores = hr[wr[hr]]
            dirty[slot0[stores] + pos[stores]] = True
    # Rows whose prefix shifts down: RSP-LRU promotions, then fills.
    promoted = hr[pos[hr] > 0] if st.promote else hr[:0]

    mr = np.flatnonzero(miss)
    if len(mr):
        totals["l2_accesses"] += tally(measured, mr)
        n_live = st.n_live[mr]
        dead = n_live == 0
        if dead.any():
            totals["misses_dead_bypass"] += tally(measured, mr[dead])
            mr = mr[~dead]
            n_live = n_live[~dead]
    depth = mr[:0]  # each filling row's shift bound
    if len(mr):
        free = (st.tags2[mr] < 0) & st.live[mr]
        depth = st.ways - 1 - free[:, ::-1].argmax(1)
        full = ~free.any(1)
        if full.any():
            # A full row evicts its tail block first.
            er = mr[full]
            depth[full] = n_live[full] - 1
            ts = slot0[er] + depth[full]
            c = cyc[er, 0]
            if st.count:
                totals["line_refreshes"] += tally_sum(measured, er, refreshes(
                    c - fill[ts], st.retention[ts], st.cap[ts]
                ))
            d = dirty[ts]
            if d.any():
                totals["writebacks"] += tally(measured, er[d])
                st.push_cols.append((
                    index[er[d]],
                    np.full(int(d.sum()), st.ways, dtype=np.int64), c[d],
                ))
        if lost is None:
            totals["misses_cold"] += tally(measured, mr)
        else:
            totals["misses_expired"] += tally(measured, mr[lost[mr]])
            totals["misses_cold"] += tally(measured, mr[~lost[mr]])
        totals["fills"] += tally(measured, mr)
    if not len(promoted) and not len(mr):
        return

    rows = np.concatenate((promoted, mr))
    bound = np.concatenate((pos[promoted], depth))
    landing = np.concatenate((
        dirty[slot0[promoted] + pos[promoted]], wr[mr],
    ))
    totals["line_moves"] += tally(measured, promoted)
    c = cyc[rows, 0]
    # Slots [0, bound) of each row move one slot down, all at once.
    shift = np.arange(st.ways - 1) < bound[:, None]
    sr, sq = shift.nonzero()
    src = slot0[rows[sr]] + sq
    dst = src + 1
    sc = c[sr]
    moved = tags[src] >= 0
    mrows = rows[sr[moved]]
    totals["line_moves"] += tally(measured, mrows)
    if st.count:
        ms = src[moved]
        totals["line_refreshes"] += tally_sum(measured, mrows, refreshes(
            sc[moved] - fill[ms], st.retention[ms], st.cap[ms]
        ))
    tags[dst] = tags[src]
    dirty[dst] = dirty[src]
    fill[dst] = sc
    st.expiry[dst] = np.where(moved, sc + st.lifetime[dst], np.inf)
    s0 = slot0[rows]
    tags[s0] = tag[rows, 0]
    dirty[s0] = landing
    fill[s0] = c
    st.expiry[s0] = c + st.lifetime[s0]


def rsp_tail(
    st: "_Lockstep", n_rows: int, segments, pushes: List[Push]
) -> Dict[str, int]:
    """Replay the hot rows' tails; returns the measured segment's counts.

    ``segments`` are the plan's tail rows before and after the warmup
    split.  The first ``n_rows`` rows' state goes to plain lists and
    back.
    """
    ways = st.ways
    shape = (n_rows, ways)
    n = n_rows * ways

    def rows(values: np.ndarray) -> list:
        return values[:n].reshape(shape).tolist()

    state = (
        rows(st.tags), rows(st.dirty), rows(st.fill), rows(st.expiry),
        st.expiry2[:n_rows].min(1).tolist(),
    )
    constants = (
        rows(st.retention), rows(st.lifetime), st.way_of[:n_rows].tolist(),
        st.n_live[:n_rows].tolist(), st.count, st.promote, st.write_back,
        ways,
    )
    warm, measured = segments
    _replay_rsp_refs(warm, state, constants, pushes)
    counts = _replay_rsp_refs(measured, state, constants, pushes)
    st.tags2[:n_rows] = state[0]
    st.fill[:n] = np.ravel(state[2])
    st.expiry[:n] = np.ravel(state[3])
    return counts


def _replay_rsp_refs(
    rows: List[tuple], state, constants, pushes: List[Push]
) -> Dict[str, int]:
    """Replay tail rows reference by reference; returns their counts.

    ``rows`` are (row, indices, cycles, tags, writes) with plain-int
    lists; ``state`` holds the tail rows' per-slot lists (mutated in
    place).  Expiry pushes carry their way index as emission order.
    """
    row_tags, row_dirty, row_fill, row_expiry, next_expiry = state
    (row_retention, row_lifetime, row_ways, n_lives, count, promote,
     write_back, n_ways) = constants
    INF = math.inf
    hits = misses_cold = misses_expired = misses_dead = writebacks = 0
    expiry_wb = write_throughs = l2_acc = line_refreshes = fills = 0
    moves = 0

    for r, indices, cycles, tags, writes in rows:
        prow = row_tags[r]
        pdirty = row_dirty[r]
        pfill = row_fill[r]
        pexp = row_expiry[r]
        retp = row_retention[r]
        life = row_lifetime[r]
        n_live = n_lives[r]
        nxt_exp = next_expiry[r]
        for i, cyc, tag, wr in zip(indices, cycles, tags, writes):
            # Lazy expiry sweep, skipped while nothing can expire.
            recent = None
            if cyc >= nxt_exp:
                nxt_exp = INF
                for p in range(n_live):
                    if prow[p] >= 0:
                        e = pexp[p]
                        if cyc >= e:
                            if recent is None:
                                recent = {prow[p]}
                            else:
                                recent.add(prow[p])
                            ecyc = int(e)
                            if count:
                                line_refreshes += count(
                                    ecyc - pfill[p], retp[p]
                                )
                            if pdirty[p]:
                                writebacks += 1
                                expiry_wb += 1
                                pushes.append((i, row_ways[r][p], ecyc))
                                pdirty[p] = False
                            prow[p] = -1
                        elif e < nxt_exp:
                            nxt_exp = e

            if wr and not write_back:
                # Write-through, no-write-allocate store path.
                write_throughs += 1
                pushes.append((i, n_ways, cyc))
                if tag not in prow:
                    misses_cold += 1
                    continue
                wr = False  # a resident line is updated, never dirtied
            if tag in prow:
                hits += 1
                p = prow.index(tag) if promote or wr else 0
                if not (p and promote):
                    if wr:
                        pdirty[p] = True
                    continue
                # RSP-LRU: the hit block moves to slot 0.
                bound = p
                landing = pdirty[p] or wr
                prow[p] = -1
                moves += 1
            else:
                # Miss: classified by whether the tag was
                # resident-but-expired.
                l2_acc += 1
                if not n_live:
                    misses_dead += 1
                    continue
                bound = n_live - 1
                for q in range(bound, -1, -1):
                    if prow[q] < 0:
                        bound = q
                        break
                else:
                    # The row is full: its tail block is evicted.
                    if count:
                        line_refreshes += count(
                            cyc - pfill[bound], retp[bound]
                        )
                    if pdirty[bound]:
                        writebacks += 1
                        pushes.append((i, n_ways, cyc))
                if recent is not None and tag in recent:
                    misses_expired += 1
                else:
                    misses_cold += 1
                landing = wr
                fills += 1

            # Slots [0, bound) move one slot down; the block lands in 0.
            for q in range(bound, 0, -1):
                src = q - 1
                moving = prow[src]
                if moving >= 0:
                    if count:
                        line_refreshes += count(cyc - pfill[src], retp[src])
                    prow[q] = moving
                    prow[src] = -1
                    pdirty[q] = pdirty[src]
                    pfill[q] = cyc
                    e = cyc + life[q]
                    pexp[q] = e
                    if e < nxt_exp:
                        nxt_exp = e
                    moves += 1
            prow[0] = tag
            pdirty[0] = landing
            pfill[0] = cyc
            e = cyc + life[0]
            pexp[0] = e
            if e < nxt_exp:
                nxt_exp = e
        next_expiry[r] = nxt_exp

    return dict(zip(COUNTS, (
        hits, misses_cold, misses_expired, misses_dead, writebacks,
        expiry_wb, write_throughs, l2_acc, fills, line_refreshes, moves,
    )))
