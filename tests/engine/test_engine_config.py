"""EngineConfig: validation, derivation, and the legacy-keyword shims."""

import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.engine.config import EngineConfig
from repro.engine.faults import FaultPlan
from repro.experiments.runner import ExperimentContext


class TestValidation:
    def test_defaults_are_valid(self):
        config = EngineConfig()
        assert config.workers is None
        assert config.resume is False
        assert config.max_retries == 2

    @pytest.mark.parametrize("field,value", [
        ("workers", 0),
        ("task_timeout", 0.0),
        ("task_timeout", -1.0),
        ("max_retries", -1),
        ("retry_backoff_s", -0.1),
        ("max_pool_failures", -1),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            EngineConfig(**{field: value})

    def test_directory_strings_coerced_to_paths(self):
        config = EngineConfig(cache_dir="a/b", checkpoint_dir="c/d")
        assert config.cache_dir == pathlib.Path("a/b")
        assert config.checkpoint_dir == pathlib.Path("c/d")

    def test_effective_workers(self):
        assert EngineConfig(workers=3).effective_workers == 3
        assert EngineConfig().effective_workers >= 1

    def test_replace(self):
        config = EngineConfig(workers=2)
        derived = config.replace(resume=True, max_retries=5)
        assert derived.workers == 2
        assert derived.resume is True
        assert derived.max_retries == 5
        assert config.resume is False  # frozen original untouched

    def test_retry_backoff_doubles(self):
        config = EngineConfig(retry_backoff_s=0.1)
        assert config.retry_backoff(1) == pytest.approx(0.1)
        assert config.retry_backoff(2) == pytest.approx(0.2)
        assert config.retry_backoff(3) == pytest.approx(0.4)

    def test_fault_plan_carried(self):
        plan = FaultPlan(seed=1, crash_rate=0.1)
        assert EngineConfig(fault_plan=plan).fault_plan is plan


class TestLegacyKwargsRemoved:
    """PR 5's deprecation cycle is complete: the legacy engine kwargs
    are gone, and every misuse names the ``EngineConfig`` migration."""

    def test_context_workers_kwarg_removed(self):
        with pytest.raises(TypeError):
            ExperimentContext(n_chips=1, n_references=600, workers=3)

    def test_context_evaluator_cache_size_kwarg_removed(self):
        with pytest.raises(TypeError):
            ExperimentContext(
                n_chips=1, n_references=600, evaluator_cache_size=4
            )

    def test_context_engine_type_checked(self):
        with pytest.raises(ConfigurationError, match="EngineConfig"):
            ExperimentContext(n_chips=1, n_references=600, engine=3)

    def test_engine_config_drives_read_only_mirrors(self):
        engine = EngineConfig(workers=4)
        context = ExperimentContext(
            n_chips=1, n_references=600, engine=engine
        )
        assert context.workers == 4

    def test_mirrors_are_read_only(self):
        context = ExperimentContext(n_chips=1, n_references=600)
        with pytest.raises(AttributeError):
            context.workers = 4

    def test_with_overrides_workers_removed(self):
        context = ExperimentContext(n_chips=2, n_references=600)
        with pytest.raises(ConfigurationError, match="unknown"):
            context.with_overrides(workers=5)

    def test_with_overrides_evaluator_cache_size_removed(self):
        context = ExperimentContext(n_chips=2, n_references=600)
        with pytest.raises(ConfigurationError, match="unknown"):
            context.with_overrides(evaluator_cache_size=5)

    def test_with_overrides_engine_replaces(self):
        context = ExperimentContext(n_chips=2, n_references=600)
        derived = context.with_overrides(engine=EngineConfig(workers=6))
        assert derived.workers == 6

    def test_engine_replace_is_the_migration(self):
        context = ExperimentContext(
            n_chips=2, n_references=600,
            engine=EngineConfig(workers=2, max_retries=7),
        )
        derived = context.with_overrides(
            engine=context.engine.replace(workers=5)
        )
        assert derived.engine.workers == 5
        assert derived.engine.max_retries == 7  # other knobs preserved
        assert derived.workers == 5

    def test_runner_legacy_kwargs_removed(self):
        from repro.engine.parallel import ParallelChipRunner

        with pytest.raises(TypeError):
            ParallelChipRunner(workers=1)

    def test_runner_positional_non_config_rejected(self):
        from repro.engine.parallel import ParallelChipRunner

        with pytest.raises(TypeError, match="EngineConfig"):
            ParallelChipRunner(4)

    def test_engine_config_path_warns_nothing(self, recwarn):
        import warnings as warnings_mod

        warnings_mod.simplefilter("always")
        ExperimentContext(
            n_chips=1, n_references=600, engine=EngineConfig(workers=2)
        )
        assert not [
            w for w in recwarn if w.category is DeprecationWarning
        ]

    def test_derived_context_shares_runner(self):
        context = ExperimentContext(n_chips=2, n_references=600)
        try:
            runner = context.runner
            derived = context.with_chips(1)
            assert derived.runner is runner
        finally:
            context.close()

    def test_runner_stores_in_checkpoint_dir(self, tmp_path):
        engine = EngineConfig(workers=1, checkpoint_dir=tmp_path)
        context = ExperimentContext(
            n_chips=1, n_references=600, engine=engine
        )
        try:
            context.chips_3t1d("typical")
        finally:
            context.close()
        assert list((tmp_path / "results").rglob("*.result"))

    def test_engine_knobs_not_in_fingerprint(self):
        plain = ExperimentContext(n_chips=1, n_references=600)
        tuned = ExperimentContext(
            n_chips=1, n_references=600,
            engine=EngineConfig(
                workers=8, resume=True, checkpoint_dir="x",
                task_timeout=5.0, max_retries=9,
                fault_plan=FaultPlan(seed=1, crash_rate=0.5),
            ),
        )
        assert plain.cache_fingerprint() == tuned.cache_fingerprint()
