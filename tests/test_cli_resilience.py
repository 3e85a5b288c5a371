"""CLI resilience: analyze diagnostics/exit codes on a seeded corrupt
trace, campaign checkpoint flags, numeric flags decoded at parse time."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.aggregate import CampaignAggregator
from repro.resilience.taskqueue import DurableTaskQueue
from tests.chaos.faults import FaultInjector


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "run.jsonl"
    code = main(["simulate", "--operator", "OP_T", "--duration", "60",
                 "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def corrupt_path(tmp_path_factory, trace_path):
    path = tmp_path_factory.mktemp("traces") / "corrupt.jsonl"
    corrupted, report = FaultInjector(seed=3, rate=0.1).corrupt(
        trace_path.read_text(encoding="utf-8"))
    assert report.n_faults > 0
    path.write_text(corrupted, encoding="utf-8")
    return path


class TestAnalyzeDiagnostics:
    def test_unreadable_file_exits_1_with_one_line(self, capsys):
        code = main(["analyze", "/definitely/not/here.jsonl"])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot read trace" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_corrupt_trace_strict_exits_1_with_diagnostic(self, corrupt_path,
                                                          capsys):
        code = main(["analyze", str(corrupt_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "corrupt trace" in err
        assert "--errors recover" in err
        assert len(err.strip().splitlines()) == 1

    def test_recover_mode_analyzes_corrupt_trace(self, corrupt_path, capsys):
        code = main(["analyze", str(corrupt_path), "--errors", "recover"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered:" in out
        assert "skipped" in out
        assert "loop:" in out

    def test_clean_trace_recover_mode_silent(self, trace_path, capsys):
        code = main(["analyze", str(trace_path), "--errors", "recover"])
        assert code == 0
        assert "recovered:" not in capsys.readouterr().out

    def test_rejects_unknown_errors_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "t.jsonl",
                                       "--errors", "lenient"])


class TestCampaignFlags:
    def test_parser_accepts_resilience_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--max-retries", "2", "--checkpoint", "c.jsonl",
             "--resume"])
        assert args.max_retries == 2
        assert args.checkpoint == "c.jsonl"
        assert args.resume

    @pytest.mark.parametrize("argv", [
        ["campaign", "--run-timeout", "nan"],
        ["campaign", "--run-timeout", "-1"],
        ["campaign", "--run-timeout", "0"],
        ["campaign", "--workers", "2", "--run-timeout", "inf"],
        ["campaign", "--max-retries", "-1"],
        ["campaign", "--queue-stall", "nan"],
        ["campaign", "--queue-stall", "-1"],
        ["campaign", "--queue-stall", "inf"],
        ["profile", "--run-timeout", "nan"],
        ["profile", "--max-retries", "-1"],
        ["worker", "--broker", "http://b:1", "--poll", "-1"],
        ["worker", "--broker", "http://b:1", "--poll", "nan"],
        ["worker", "--broker", "http://b:1", "--poll", "0"],
        ["worker", "--broker", "http://b:1", "--attach-timeout", "nan"],
        ["worker", "--broker", "http://b:1", "--attach-timeout", "-1"],
        ["worker", "--broker", "http://b:1", "--attach-timeout", "inf"],
        ["broker", "serve", "--queue-dir", "q", "--request-timeout", "nan"],
        ["broker", "serve", "--queue-dir", "q", "--request-timeout", "-1"],
        ["broker", "serve", "--queue-dir", "q", "--request-timeout", "0"],
        ["status", "q", "--events", "-1"],
    ])
    def test_bad_numeric_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert f"argument {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["faults", "run.jsonl"],
        ["campaign", "--broker-fault-rate", "0.25"],
        ["worker", "--broker", "http://127.0.0.1:9", "--fail-after", "1"],
    ])
    def test_fault_injection_is_not_a_cli_surface(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_campaign_with_checkpoint_then_resume(self, tmp_path, capsys):
        path = tmp_path / "cli.ckpt"
        argv = ["campaign", "--operator", "OP_V", "--areas", "A9",
                "--locations", "1", "--runs", "1", "--duration", "60",
                "--checkpoint", str(path)]
        assert main(argv) == 0
        assert path.exists()
        first = capsys.readouterr().out
        assert "1 scheduled, 1 completed, 0 quarantined" in first

        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "1 scheduled, 1 completed, 0 quarantined" in second


class TestStatusEvents:
    """``repro status --events N`` shows the N latest events; 0 shows
    none (``events[-0:]`` used to show every one)."""

    @pytest.fixture
    def queue_dir(self, tmp_path):
        queue = DurableTaskQueue(tmp_path / "q", fsync=False)
        queue.open(create=True)
        queue.submit_at(0, ("k0",), "p0")
        queue.close()  # synthesized as a ``queue.sealed`` event
        return tmp_path / "q"

    def test_view_keeps_the_latest_n(self, queue_dir):
        aggregator = CampaignAggregator(queue_dir)
        assert aggregator.refresh()
        assert aggregator.view(recent_events=0).events == []
        assert [event["name"] for event
                in aggregator.view(recent_events=1).events] \
            == ["queue.sealed"]

    def test_events_0_prints_none(self, queue_dir, capsys):
        assert main(["status", str(queue_dir), "--json",
                     "--events", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["events"] == []
