"""The ``python -m repro.service`` command-line surface."""

import pytest

from repro.service.cli import build_parser, main

ARGS = ["--chips", "2", "--refs", "400", "--seed", "9"]


def root_args(tmp_path):
    return ["--root", str(tmp_path / "svc")]


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["submit", "fig10_hundred_chips"],
            ["serve"],
            ["watch", "job-00000"],
            ["jobs"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_submit_defaults_mirror_the_paper_point(self):
        args = build_parser().parse_args(["submit", "table3"])
        assert (args.chips, args.refs, args.seed) == (60, 8000, 2007)
        assert args.technology == "3t1d"
        assert args.backend == "local"
        assert args.detach is False

    def test_command_is_required(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSubmitCommand:
    def test_submit_runs_and_reports(self, tmp_path, capsys):
        rc = main(
            ["submit", "fig10_hundred_chips", *ARGS, "--wait"]
            + root_args(tmp_path)
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("job-00000\n")
        assert "Figure 10" in out

    def test_unknown_experiment_is_a_clean_error(self, tmp_path, capsys):
        rc = main(
            ["submit", "no_such_experiment"] + root_args(tmp_path)
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_detach_then_serve_then_jobs(self, tmp_path, capsys):
        root = root_args(tmp_path)
        assert main(
            ["submit", "fig10_hundred_chips", *ARGS, "--detach"] + root
        ) == 0
        job_id = capsys.readouterr().out.strip()

        assert main(["serve"] + root) == 0
        assert f"started {job_id}" in capsys.readouterr().out

        assert main(["jobs"] + root) == 0
        listing = capsys.readouterr().out
        assert job_id in listing
        assert "done" in listing

    def test_serve_stops_the_fleet_it_started(
        self, tmp_path, capsys, child_pids
    ):
        root = root_args(tmp_path)
        fleet = ["--backend", "subprocess-fleet", "--fleet-size", "2"]
        before = child_pids()
        for seed in ("9", "10"):
            assert main(
                ["submit", "fig10_hundred_chips", "--chips", "2",
                 "--refs", "400", "--seed", seed, "--detach", *fleet] + root
            ) == 0
        assert main(["serve"] + root) == 0
        assert main(["jobs"] + root) == 0
        listing = capsys.readouterr().out
        assert listing.count(" done ") == 2
        assert child_pids() == before

    def test_submit_wait_leaves_other_queued_jobs_alone(
        self, tmp_path, capsys
    ):
        root = root_args(tmp_path)
        assert main(
            ["submit", "fig10_hundred_chips", *ARGS, "--detach"] + root
        ) == 0
        queued = capsys.readouterr().out.strip()
        assert main(
            ["submit", "fig10_hundred_chips", "--chips", "2", "--refs",
             "400", "--seed", "10", "--wait"] + root
        ) == 0
        capsys.readouterr()
        assert main(["jobs"] + root) == 0
        listing = capsys.readouterr().out
        assert f"{queued}  queued " in listing
        assert listing.count(" done ") == 1

    def test_jobs_on_empty_root(self, tmp_path, capsys):
        assert main(["jobs"] + root_args(tmp_path)) == 0
        assert capsys.readouterr().out == "no jobs\n"


class TestWatchCommand:
    def test_watch_replays_the_event_stream(self, tmp_path, capsys):
        root = root_args(tmp_path)
        main(["submit", "fig10_hundred_chips", *ARGS] + root)
        job_id = capsys.readouterr().out.strip()
        rc = main(["watch", job_id, "--no-follow"] + root)
        out = capsys.readouterr().out
        assert rc == 0
        assert "ExperimentStarted" in out
        assert "ExperimentEnded" in out
        assert out.rstrip().endswith(f"{job_id}: done")

    def test_watch_unknown_job_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["watch", "job-12345"] + root_args(tmp_path))
        assert rc == 2
        assert "no such job" in capsys.readouterr().err
