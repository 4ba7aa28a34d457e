"""The closed ``EngineConfig.backend`` choice and its config fields."""

import pytest

from repro.engine.config import (
    EngineConfig,
    EXECUTION_BACKENDS,
    LOCAL_BACKEND,
    SUBPROCESS_FLEET_BACKEND,
)
from repro.engine.parallel import ParallelChipRunner
from repro.errors import ConfigurationError
from repro.experiments.cli import engine_parent_parser
from repro.service.cli import build_parser as build_service_parser


class TestEngineConfigBackendField:
    def test_default_is_local(self):
        assert EngineConfig().backend == LOCAL_BACKEND

    def test_fleet_size_defaults_to_workers(self):
        config = EngineConfig(workers=3, backend=SUBPROCESS_FLEET_BACKEND)
        assert config.effective_fleet_size == 3

    def test_explicit_fleet_size_wins(self):
        config = EngineConfig(
            workers=2, backend=SUBPROCESS_FLEET_BACKEND, fleet_size=5
        )
        assert config.effective_fleet_size == 5

    def test_invalid_fleet_size_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(fleet_size=0)

    def test_replace_round_trips_backend_fields(self, tmp_path):
        config = EngineConfig(
            backend=SUBPROCESS_FLEET_BACKEND,
            fleet_size=4,
            queue_dir=tmp_path / "q",
        )
        clone = config.replace(workers=8)
        assert clone.backend == SUBPROCESS_FLEET_BACKEND
        assert clone.fleet_size == 4
        assert clone.queue_dir == tmp_path / "q"


class TestRunnerBackendRouting:
    def test_empty_backend_name_rejected_by_config(self):
        with pytest.raises(ConfigurationError, match="backend"):
            EngineConfig(backend="")

    def test_runner_close_is_safe_without_backend_use(self):
        runner = ParallelChipRunner(EngineConfig(workers=1))
        runner.close()


class TestCliBackendChoices:
    @pytest.mark.parametrize("make_parser, argv", [
        (engine_parent_parser, []),
        (build_service_parser, ["submit", "fig10"]),
    ])
    def test_unknown_backend_is_an_argparse_error(
        self, make_parser, argv, capsys
    ):
        parser = make_parser()
        for name in EXECUTION_BACKENDS:
            args = parser.parse_args(argv + ["--backend", name])
            assert args.backend == name
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv + ["--backend", "carrier-pigeon"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
