"""Self-tests of the benchmark's own arithmetic, wrappers and gates.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    recorder = layers.Recorder(clock=clock)

    def inner_b():
        clock.advance(3.0)

    def inner_a():  # the outer layer calling itself
        clock.advance(2.0)

    b = layers.timed(recorder, "B", inner_b)
    a_nested = layers.timed(recorder, "A", inner_a)

    def outer():
        clock.advance(1.0)
        b()
        clock.advance(1.0)
        a_nested()
        clock.advance(3.0)

    layers.timed(recorder, "A", outer)()
    assert clock.now == 10.0
    assert recorder.self_s["B"] == pytest.approx(3.0)
    # Outer A: 10 - 3 (B) - 2 (nested A) = 5; nested A adds its own 2.
    assert recorder.self_s["A"] == pytest.approx(7.0)
    assert sum(recorder.self_s.values()) == pytest.approx(clock.now)


def test_on_result_counts_only_the_outermost_span_of_a_layer():
    recorder = layers.Recorder()
    seen = []
    inner = layers.timed(recorder, "L", lambda: 1, lambda a, r: seen.append(r))
    outer = layers.timed(recorder, "L", lambda: inner() + 1,
                         lambda a, r: seen.append(r))
    outer()
    assert seen == [2]


def test_generator_spans_exclude_the_consumer():
    clock = FakeClock()
    recorder = layers.Recorder(clock=clock)

    def produce():
        for item in range(3):
            clock.advance(1.0)
            yield item

    consumed = []
    for item in layers.timed_generator(recorder, "G", produce)():
        clock.advance(10.0)  # consumer work between items
        consumed.append(item)
    assert consumed == [0, 1, 2]
    assert recorder.self_s["G"] == pytest.approx(3.0)


def test_wrappers_are_restored_after_a_traced_round():
    from repro.core import batcheval, evaluation
    from repro.core.batcheval import TraceArtifacts

    before_simulate = batcheval.simulate_trace
    before_bound = evaluation.simulate_trace
    before_classmethod = TraceArtifacts.__dict__["from_trace"]
    patches = layers.Patches()
    recorder = layers.Recorder()
    layers.install_layers(recorder, layers.SimCounter(recorder), patches)
    assert patches.missing == []
    originals = [(owner, name, raw) for owner, name, raw in patches.saved]
    assert batcheval.simulate_trace is not before_simulate
    assert isinstance(TraceArtifacts.__dict__["from_trace"], classmethod)
    patches.restore()
    for owner, name, raw in originals:
        current = (owner.__dict__[name] if isinstance(owner, type)
                   else getattr(owner, name))
        assert current is raw, f"{owner}.{name} not restored"
    assert batcheval.simulate_trace is before_simulate
    assert evaluation.simulate_trace is before_bound
    assert TraceArtifacts.__dict__["from_trace"] is before_classmethod


def test_missing_targets_are_reported_not_fatal():
    patches = layers.Patches()
    patches.wrap(layers, "no_such_function", lambda fn: fn)
    assert patches.missing == ["layers.no_such_function"]
    assert patches.saved == []


def _round(digests, sim=None, **extra):
    base = {"failures": [], "spot_mismatches": [], "digests": digests,
            "missing_targets": [], "traced": False,
            "sim": sim or {"core.batcheval.event_replays": 0,
                           "core.sim.misses": 5}}
    base.update(extra)
    return base


def test_digest_gate_passes_identical_outputs():
    digests = {"cold/a.txt": "1", "hit/a.txt": "1"}
    rounds = [_round(dict(digests)), _round(dict(digests))]
    assert run.check("geomsweep", 7, rounds, None, {}) == []


def test_digest_gate_trips_on_a_perturbed_output():
    good = {"cold/a.txt": "1", "hit/a.txt": "1"}
    perturbed = {"cold/a.txt": "2", "hit/a.txt": "2"}
    problems = run.check(
        "geomsweep", 7, [_round(good), _round(perturbed)], None, {}
    )
    assert any("differ from round 0" in p for p in problems)
    # A cached re-run that renders different bytes trips it too.
    stale = {"cold/a.txt": "1", "hit/a.txt": "3"}
    assert run.check("geomsweep", 7, [_round(stale)], None, {})


def test_digest_gate_checks_golden_and_event_replays():
    digests = {"cold/a.txt": "1"}
    sim = {"core.batcheval.event_replays": 0, "core.sim.misses": 5}
    golden = {"geomsweep": {"7": {"outputs": {"cold/a.txt": "9"},
                                  "sim": sim}}}
    problems = run.check("geomsweep", 7, [_round(digests, sim)], None, golden)
    assert any("golden digests" in p for p in problems)
    evented = dict(sim, **{"core.batcheval.event_replays": 1})
    assert run.check("geomsweep", 8, [_round(digests, evented)], None, golden)


def test_digest_gate_compares_fleet_results_with_the_local_backend():
    digests = {"cold/5/result.pkl": "r", "cold/5/report.txt": "t",
               "hit/5/result.pkl": "r", "hit/5/report.txt": "t"}
    reference = {"5": {"result.pkl": "r", "report.txt": "t", "refs": 1}}
    assert run.check("service_fleet", 0, [_round(digests)], reference, {}) == []
    reference["5"]["result.pkl"] = "other"
    assert run.check("service_fleet", 0, [_round(digests)], reference, {})


def test_check_fails_a_run_that_lost_a_layer():
    rounds = [_round({"cold/a.txt": "1"},
                     missing_targets=["ChipSampler.sample_3t1d_chip"])]
    problems = run.check("geomsweep", 7, rounds, None, {})
    assert any("sample_3t1d_chip not wrapped" in p for p in problems)


def test_check_limits_unattributed_time_on_serial_workloads():
    def traced(unattributed):
        return _round({"cold/a.txt": "1"}, traced=True, wall_s=10.0,
                      layers={"unattributed_s": unattributed})

    assert run.check("paper_drivers", 7, [traced(1.0)], None, {}) == []
    problems = run.check("paper_drivers", 7, [traced(1.5)], None, {})
    assert any("unattributed 15.0%" in p for p in problems)
    # The service is traced on the coordinator side only: no limit.
    assert run.check("service_fleet", 7, [traced(1.5)], {}, {}) == []


def test_estimates_use_a_fixed_number_of_untraced_rounds():
    n = run.SCALES["geomsweep"]["rounds"]
    rounds = [{"traced": i % 2 == 0, "i": i} for i in range(3 * n)]
    chosen = run.estimated_rounds("geomsweep", rounds)
    assert [r["i"] for r in chosen] == list(range(1, 2 * n, 2))


def test_floor_sum_takes_each_units_fastest_round():
    # Round 0 is slow in unit 0, round 1 in unit 1 and in the remainder.
    totals = [4.0 + 1.0 + 0.5, 1.0 + 3.0 + 0.9]
    units = [[4.0, 1.0], [1.0, 3.0]]
    assert run.floor_sum(totals, units) == pytest.approx(1.0 + 1.0 + 0.5)
    with pytest.raises(ValueError, match="different numbers of units"):
        run.floor_sum(totals, [[4.0, 1.0], [1.0]])


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail(list(range(19)))["pct"] is None
    assert run.tail(list(range(20)))["pct"] == 50
    result = run.tail([float(i) for i in range(1, 101)])
    assert (result["pct"], result["value"], result["n"]) == (90, 90.0, 100)


def test_golden_covers_the_default_and_held_out_seeds():
    golden = run.load_golden()
    for workload in ("geomsweep", "paper_drivers"):
        assert set(golden[workload]) == {
            str(run.DEFAULT_SEED), str(run.HELDOUT_SEED)
        }


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.SCALES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
