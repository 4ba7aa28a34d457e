"""The process-pool scheduler: serial/parallel bit-identity."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.engine.config import EngineConfig
from repro.technology import NODE_32NM
from repro.variation import VariationParams
from repro.array import ChipSampler
from repro.engine.parallel import (
    EvalTask,
    EvaluatorSpec,
    ParallelChipRunner,
    run_eval_task,
)
from repro.experiments.runner import ExperimentContext
from repro.experiments import fig10_hundred_chips


class TestEvaluatorSpec:
    def test_build_matches_context_evaluator(self):
        context = ExperimentContext(n_chips=1, n_references=900, seed=4)
        spec = context.evaluator_spec()
        evaluator = spec.build()
        assert evaluator.node == NODE_32NM
        assert evaluator.n_references == 900
        assert evaluator.config.geometry.ways == 4

    def test_ways_flow_into_config(self):
        spec = EvaluatorSpec(node=NODE_32NM, ways=2, n_references=800)
        assert spec.build().config.geometry.ways == 2

    def test_invalid_ways_rejected(self):
        with pytest.raises(ConfigurationError):
            EvaluatorSpec(node=NODE_32NM, ways=0)


class TestEvalTaskValidation:
    def test_schemes_task_needs_chip(self):
        spec = EvaluatorSpec(node=NODE_32NM, n_references=800)
        with pytest.raises(ConfigurationError):
            EvalTask(evaluator=spec, schemes=("RSP-FIFO",))

    def test_unknown_kind_rejected(self):
        spec = EvaluatorSpec(node=NODE_32NM, n_references=800)
        with pytest.raises(ConfigurationError):
            EvalTask(evaluator=spec, kind="bogus")


class TestRunnerBasics:
    def test_workers_validated(self):
        with pytest.raises(ConfigurationError):
            ParallelChipRunner(EngineConfig(workers=0))

    def test_map_preserves_task_order(self):
        with ParallelChipRunner(EngineConfig(workers=2)) as runner:
            results = runner.map(abs, [-3, -1, -2, 0, 5])
        assert results == [3, 1, 2, 0, 5]

    def test_build_chips_matches_serial_sampling(self):
        serial = ChipSampler(
            NODE_32NM, VariationParams.severe(), seed=30
        ).sample_3t1d_chips(4)
        sampler = ChipSampler(NODE_32NM, VariationParams.severe(), seed=30)
        tasks = sampler.reserve_build_tasks(4, kind="3t1d")
        with ParallelChipRunner(EngineConfig(workers=2)) as runner:
            parallel = runner.build_chips(tasks)
        for a, b in zip(serial, parallel):
            assert a.chip_id == b.chip_id
            assert np.array_equal(a.retention_by_line, b.retention_by_line)
            assert a.leakage_power == b.leakage_power

    def test_discarded_chip_reduces_to_outcome(self):
        # The severe scenario reliably yields dead lines; the global
        # scheme must mark such a chip discarded instead of raising.
        chips = ChipSampler(
            NODE_32NM, VariationParams.severe(), seed=31
        ).sample_3t1d_chips(6)
        dead = [c for c in chips if c.is_discarded_under_global_scheme()]
        assert dead, "expected at least one discarded chip at severe"
        spec = EvaluatorSpec(node=NODE_32NM, n_references=600)
        (outcome,) = run_eval_task(
            EvalTask(evaluator=spec, chip=dead[0], schemes=("Global",))
        )
        assert outcome.discarded
        assert outcome.normalized_performance == 0.0


class TestSerialParallelIdentity:
    def test_fig10_parallel_matches_serial(self):
        serial_ctx = ExperimentContext(
            n_chips=4, n_references=1200, seed=6,
            engine=EngineConfig(workers=1),
        )
        parallel_ctx = ExperimentContext(
            n_chips=4, n_references=1200, seed=6,
            engine=EngineConfig(workers=4),
        )
        try:
            serial = fig10_hundred_chips.run(serial_ctx)
            parallel = fig10_hundred_chips.run(parallel_ctx)
        finally:
            serial_ctx.close()
            parallel_ctx.close()
        assert serial.chip_ids == parallel.chip_ids
        for scheme in serial.performance:
            assert np.array_equal(
                serial.performance[scheme], parallel.performance[scheme]
            )
            assert np.array_equal(
                serial.power[scheme], parallel.power[scheme]
            )


class TestEvaluatorCacheConfig:
    def test_default_size(self):
        from repro.engine.parallel import DEFAULT_EVALUATOR_CACHE_SIZE

        assert DEFAULT_EVALUATOR_CACHE_SIZE == 6

    def test_lru_bound_evicts_oldest(self):
        from repro.engine.parallel import (
            DEFAULT_EVALUATOR_CACHE_SIZE,
            _EVALUATOR_CACHE,
            evaluator_for,
        )

        # A tiny suite keeps the specs cheap to build.
        specs = [
            EvaluatorSpec(
                node=NODE_32NM, n_references=601 + i, seed=71,
                benchmarks=("gcc",),
            )
            for i in range(DEFAULT_EVALUATOR_CACHE_SIZE + 1)
        ]
        first = evaluator_for(specs[0])
        second = evaluator_for(specs[1])
        for spec in specs[2:]:
            evaluator_for(spec)  # the last one evicts specs[0]
        assert len(_EVALUATOR_CACHE) == DEFAULT_EVALUATOR_CACHE_SIZE
        assert specs[0] not in _EVALUATOR_CACHE
        assert evaluator_for(specs[1]) is second
        assert evaluator_for(specs[0]) is not first


class TestTraceReuse:
    def test_second_evaluation_regenerates_no_traces(self, monkeypatch):
        """A warm process-local evaluator never rebuilds its traces."""
        from repro.workloads.generator import SyntheticWorkload

        calls = {"memory_trace": 0}
        original = SyntheticWorkload.memory_trace

        def counting(self, *args, **kwargs):
            calls["memory_trace"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SyntheticWorkload, "memory_trace", counting)
        # A seed no other test uses, so the process-local cache is cold.
        spec = EvaluatorSpec(node=NODE_32NM, n_references=700, seed=20207)
        chip = ChipSampler(
            NODE_32NM, VariationParams.typical(), seed=12
        ).sample_3t1d_chip()
        task = EvalTask(
            evaluator=spec, chip=chip, schemes=("no-refresh/LRU",)
        )
        run_eval_task(task)
        generated = calls["memory_trace"]
        assert generated > 0
        run_eval_task(task)
        run_eval_task(
            EvalTask(
                evaluator=spec, chip=chip, schemes=("partial-refresh/DSP",)
            )
        )
        assert calls["memory_trace"] == generated
