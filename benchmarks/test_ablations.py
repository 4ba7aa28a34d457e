"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures, but the knobs the paper fixes by fiat -- each ablation
sweeps one and checks the direction the paper's choice implies:

* line-counter width (the paper's 3 bits),
* partial-refresh threshold (the paper's 6K cycles),
* refresh granularity (line vs the un-built word-level variant),
* write-back vs write-through,
* 6T protection alternatives (spares / ECC) vs switching to 3T1D.
"""

import numpy as np
import pytest

from repro.array import ChipSampler
from repro.cache.config import CacheConfig
from repro.cache.counters import LineCounterConfig
from repro.core import (
    Cache3T1DArchitecture,
    Evaluator,
    SCHEME_NO_REFRESH_LRU,
    compare_refresh_granularity,
    redundancy,
)
from repro.core.schemes import RetentionScheme
from repro.core.yieldmodel import YieldModel
from benchmarks.conftest import run_once

BENCHMARKS = ("gcc", "mcf", "mesa")


def _median_chip(context):
    chips = context.chips_3t1d("severe")
    _, median, _ = YieldModel(chips).pick_good_median_bad()
    return median


def test_ablation_counter_bits(benchmark, context):
    """Wider counters quantise retention less aggressively.

    3 bits (the paper's pick) should recover most of what 5 bits offer;
    1-bit counters waste a large share of every line's retention.
    """
    chip = _median_chip(context)
    evaluator = context.evaluator()

    def sweep():
        results = {}
        for bits in (1, 2, 3, 5):
            counter = LineCounterConfig.for_chip(
                float(np.max(chip.retention_by_line) * chip.node.frequency),
                bits=bits,
            )
            architecture = Cache3T1DArchitecture(
                chip, SCHEME_NO_REFRESH_LRU, counter=counter
            )
            results[bits] = evaluator.evaluate(
                architecture, benchmarks=BENCHMARKS
            ).normalized_performance
        return results

    results = run_once(benchmark, sweep)
    print("\ncounter bits -> performance:", {
        bits: round(perf, 3) for bits, perf in results.items()
    })
    # Monotone: every extra counter bit recovers quantised-away retention.
    assert results[1] < results[2] < results[3] <= results[5] + 1e-9
    # The paper's 3-bit pick sits past the steep part of the curve: going
    # 1 -> 3 bits buys several times more than going 3 -> 5.
    assert (results[3] - results[1]) > 3 * (results[5] - results[3])


def test_ablation_partial_refresh_threshold(benchmark, context):
    """Sweep the partial-refresh threshold around the paper's 6K cycles.

    Longer guarantees cut expiry misses but add refresh traffic; the
    curve should be fairly flat around 6K (the paper's choice is not a
    cliff) and clearly better than a token threshold.
    """
    chip = _median_chip(context)

    def sweep():
        results = {}
        for threshold in (500, 2000, 6000, 12000, 24000):
            config = CacheConfig(partial_refresh_threshold_cycles=threshold)
            evaluator = Evaluator(
                context.node, config=config,
                n_references=context.n_references, seed=context.seed,
            )
            scheme = RetentionScheme(
                name=f"partial-{threshold}", refresh="partial-refresh",
                replacement="DSP",
            )
            architecture = Cache3T1DArchitecture(chip, scheme, config=config)
            results[threshold] = evaluator.evaluate(
                architecture, benchmarks=BENCHMARKS
            ).normalized_performance
        return results

    results = run_once(benchmark, sweep)
    print("\npartial threshold -> performance:", {
        t: round(p, 3) for t, p in results.items()
    })
    # Longer lifetime guarantees monotonically cut expiry misses.
    assert results[6000] >= results[500] - 0.005
    assert results[24000] >= results[6000] - 0.005
    # Diminishing returns: the 12K -> 24K step buys less than 500 -> 6K.
    assert (results[24000] - results[12000]) < (
        results[6000] - results[500] + 0.03
    )
    # NOTE (deviation from the paper): because our port-blocking model
    # credits the sub-array pairs' parallelism, extra refresh traffic is
    # nearly free and longer thresholds keep paying off, consistent with
    # full-refresh/DSP ranking highest in our Figure 9.  The paper charges
    # blocking globally and sees full refresh give ~1% back.


def test_ablation_word_level_refresh(benchmark, context):
    """The extension the paper declined: word-granularity refresh."""
    # The severe chips' reserved builds; each solves its own word map.
    tasks = ChipSampler(
        context.node, context.scenario("severe"), seed=context.seed
    ).reserve_build_tasks(context.n_chips)

    def sweep():
        comparisons = [compare_refresh_granularity(task) for task in tasks]
        return [c for c in comparisons if c.weak_lines > 0]

    comparisons = run_once(benchmark, sweep)
    assert comparisons, "severe chips should have weak lines"
    savings = [c.bandwidth_saving for c in comparisons]
    ratios = [c.counter_hardware_ratio for c in comparisons]
    print(f"\nword-level refresh: bandwidth saving median "
          f"{np.median(savings):.0%}, counter hardware {ratios[0]:.0f}x")
    # Word granularity saves most of the refresh bandwidth...
    assert np.median(savings) > 0.5
    # ...at 8x the counter hardware -- the paper's "excessive overhead".
    assert all(r == pytest.approx(8.0) for r in ratios)


def test_ablation_write_policy(benchmark, context):
    """Write-back vs write-through under retention expiry.

    Write-through needs no expiry write-backs (the paper's observation)
    but pays continuous L2 write traffic.
    """
    chip = _median_chip(context)

    def sweep():
        out = {}
        for write_back in (True, False):
            config = CacheConfig(write_back=write_back)
            evaluator = Evaluator(
                context.node, config=config,
                n_references=context.n_references, seed=context.seed,
            )
            architecture = Cache3T1DArchitecture(
                chip, SCHEME_NO_REFRESH_LRU, config=config
            )
            result = evaluator.evaluate(architecture, benchmarks=BENCHMARKS)
            stats = result.results["gcc"].stats
            out[write_back] = (
                result.normalized_performance,
                stats.expiry_writebacks,
                stats.write_throughs,
            )
        return out

    results = run_once(benchmark, sweep)
    wb_perf, wb_expiry, wb_wt = results[True]
    wt_perf, wt_expiry, wt_wt = results[False]
    print(f"\nwrite-back: perf {wb_perf:.3f}, expiry write-backs {wb_expiry}; "
          f"write-through: perf {wt_perf:.3f}, L2 writes {wt_wt}")
    assert wt_expiry == 0  # no action needed on expiry
    assert wt_wt > 0
    assert wb_wt == 0


def test_ablation_6t_protection(benchmark):
    """Could spares/ECC have saved 6T instead? (section 2.1)"""

    def sweep():
        rates = {}
        for scenario, sigma in (("typical", 0.03), ("severe", 0.045)):
            from repro.cells import SRAM6TCell
            from repro.technology import NODE_32NM

            rate = SRAM6TCell(NODE_32NM).flip_probability(sigma)
            rates[scenario] = redundancy.protection_report(rate)
        ceiling = redundancy.max_tolerable_flip_rate(use_ecc=True)
        return rates, ceiling

    (rates, ceiling) = run_once(benchmark, sweep)
    for scenario, report in rates.items():
        print(f"\n{scenario}: {report}")
    print(f"max flip rate SECDED+16 spares can absorb: {ceiling:.2%}")

    # The paper's 64% line-failure anchor.
    assert rates["typical"].line_failure == pytest.approx(0.64, abs=0.03)
    # Spares alone are hopeless; even ECC cannot reach the typical rate.
    assert rates["typical"].spare_yield < 1e-6
    assert ceiling < rates["typical"].bit_flip_rate


def test_ablation_token_refresh_engine(benchmark, context):
    """Lazy refresh accounting vs the explicit token engine (section 4.3.1).

    The default simulator charges refreshes lazily at line end-of-life;
    the token engine schedules them online, serialized per sub-array pair
    with the conservative early-request margin.  Hit/miss behaviour and
    refresh counts must agree closely -- the margin's only visible cost is
    that sub-margin lines are not refreshable.
    """
    import repro.cache.refresh as refresh_mod
    from repro.cache.controller import RetentionAwareCache

    chip = _median_chip(context)
    evaluator = context.evaluator()
    trace = evaluator.trace("gcc")
    arch = Cache3T1DArchitecture(
        chip,
        RetentionScheme(
            name="full/DSP", refresh="full-refresh", replacement="DSP"
        ),
    )

    def sweep():
        out = {}
        for online in (False, True):
            cache = RetentionAwareCache(
                arch.config,
                retention_cycles=arch.retention_cycles_raw,
                replacement="DSP",
                refresh=refresh_mod.FullRefresh(),
                counter=arch.counter,
                online_refresh=online,
            )
            stats = cache.run_trace(
                trace.cycles, trace.line_addresses, trace.is_write,
                warmup_references=trace.warmup_references,
            )
            out[online] = (stats.hits, stats.misses, stats.line_refreshes,
                           cache.refresh_engine)
        return out

    results = run_once(benchmark, sweep)
    lazy_hits, lazy_misses, lazy_refreshes, _ = results[False]
    online_hits, online_misses, online_refreshes, engine = results[True]
    print(f"\nlazy: hits {lazy_hits} misses {lazy_misses} refreshes "
          f"{lazy_refreshes}; token: hits {online_hits} misses "
          f"{online_misses} refreshes {online_refreshes}, max token wait "
          f"{engine.max_token_wait} cycles")
    # Hit behaviour nearly identical.  The engine may lose a few hits on
    # lines whose retention cannot cover the token margin (unsustainable
    # lines expire where the lazy idealisation refreshed them) -- bound
    # the deficit at a few percent of the accesses.
    total = lazy_hits + lazy_misses
    assert online_hits >= lazy_hits - max(5, total // 25)
    # The conservative margin is not free: requesting the token
    # ``margin`` cycles early shortens every refresh period from r to
    # (r - margin), so the explicit engine refreshes MORE than the lazy
    # idealisation -- up to ~3x on short-retention severe chips.  This is
    # the quantified cost of the paper's "conservatively set the
    # retention time counter" rule.
    if lazy_refreshes:
        assert lazy_refreshes <= online_refreshes <= 4 * lazy_refreshes
    # Token serialization stayed bounded by the conservative margin.
    assert engine.max_token_wait <= engine.margin_cycles


def test_ablation_closed_form_vs_event(benchmark, context):
    """Closed-form evaluation vs the event simulator across real chips.

    The simulation-free estimator (microseconds per point) must track the
    event-driven authority closely enough to screen design spaces.
    """
    import numpy as np

    from repro.core.analytic import evaluate_analytically
    from repro.core import SCHEME_RSP_FIFO
    from repro.workloads import get_profile

    chips = context.chips_3t1d("severe")[:10]
    evaluator = context.evaluator()
    window = evaluator.trace("gcc").measured_window_cycles
    profile = get_profile("gcc")

    def sweep():
        pairs = []
        for chip in chips:
            architecture = Cache3T1DArchitecture(chip, SCHEME_RSP_FIFO)
            closed = evaluate_analytically(
                architecture, profile, window_cycles=window
            ).normalized_performance
            event = evaluator.evaluate_benchmark(
                architecture, "gcc"
            ).normalized_performance
            pairs.append((closed, event))
        return pairs

    pairs = run_once(benchmark, sweep)
    errors = [abs(c - e) for c, e in pairs]
    print(f"\nclosed-form vs event: mean |error| {np.mean(errors):.3f}, "
          f"max {np.max(errors):.3f} over {len(pairs)} chips")
    assert np.mean(errors) < 0.05
    assert np.max(errors) < 0.12


def test_ablation_variable_latency_6t(benchmark, context):
    """The related-work alternative: variable-latency 6T (section 6).

    Keeping the nominal clock and letting slow lines take an extra cycle
    rescues most of the frequency-binning loss -- but the paper's point
    stands: the 6T cell is still unstable (64% line failure at the 0.4%
    flip rate) and still leaks, so 3T1D wins the full comparison.
    """
    import numpy as np

    from repro.core import SCHEME_RSP_FIFO, redundancy
    from repro.core.variable_latency import evaluate_variable_latency
    from repro.core.yieldmodel import YieldModel
    from repro.workloads import get_profile

    profile = get_profile("gcc")
    evaluator = context.evaluator()

    def sweep():
        sram_chips = context.chips_sram("typical", 1.0)[:12]
        dram_chips = context.chips_3t1d("typical")[:12]
        binned = [c.normalized_frequency for c in sram_chips]
        var_lat = [
            evaluate_variable_latency(c, profile).normalized_performance
            for c in sram_chips
        ]
        rsp = [
            evaluator.evaluate_benchmark(
                Cache3T1DArchitecture(c, SCHEME_RSP_FIFO), "gcc"
            ).normalized_performance
            for c in dram_chips
        ]
        flip_rate = float(np.mean([c.flip_rate for c in sram_chips]))
        leak_6t = float(np.median([c.normalized_leakage for c in sram_chips]))
        leak_3t1d = float(
            np.median([c.normalized_leakage for c in dram_chips])
        )
        return binned, var_lat, rsp, flip_rate, leak_6t, leak_3t1d

    binned, var_lat, rsp, flip_rate, leak_6t, leak_3t1d = run_once(
        benchmark, sweep
    )
    print(
        f"\nmedian perf: freq-binned 6T {np.median(binned):.3f}, "
        f"variable-latency 6T {np.median(var_lat):.3f}, 3T1D RSP-FIFO "
        f"{np.median(rsp):.3f}; 6T flip rate {flip_rate:.2%}, leakage "
        f"6T {leak_6t:.1f}x vs 3T1D {leak_3t1d:.1f}x"
    )
    # Performance: variable latency rescues binning; 3T1D is comparable.
    assert np.median(var_lat) > np.median(binned) + 0.05
    assert abs(np.median(rsp) - np.median(var_lat)) < 0.1
    # But 6T stability is broken regardless of the latency trick...
    assert redundancy.line_failure_probability(flip_rate, 256) > 0.5
    # ...and the 6T cache leaks several times the 3T1D one.
    assert leak_6t > 2.5 * leak_3t1d
