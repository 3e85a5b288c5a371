"""CLI observability: --metrics-out/--trace-out/--progress, profile,
SIGINT snapshot flush.

Carries the acceptance checks: a seeded mini-campaign's metrics JSON
reconciles with non-zero stage timers, the spans JSONL passes the
structural integrity check, and identical seeds produce identical
counters.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.obs import parse_spans_jsonl, verify_span_tree

CAMPAIGN_ARGV = ["campaign", "--operator", "OP_V", "--areas", "A9",
                 "--locations", "2", "--runs", "2", "--duration", "60",
                 "--seed", "7"]

#: The start of a rendered event record: ``HH:MM:SS SEVERITY``.
EVENT_RECORD = re.compile(r"\d\d:\d\d:\d\d (DEBUG|INFO|WARNING|ERROR) ")


def run_repro(*args: str) -> subprocess.CompletedProcess:
    """``python -m repro <args>`` on this checkout's sources."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env={**os.environ,
             "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        capture_output=True, timeout=300)


def on_screen(text: str) -> list[str]:
    """The lines a terminal shows for ``text``: each carriage return
    moves back to column 0 and the following text overwrites."""
    lines = []
    for line in text.split("\n"):
        shown = ""
        for part in line.split("\r"):
            shown = part + shown[len(part):]
        lines.append(shown.rstrip())
    return lines


#: A 2-run campaign whose checkpoint the resume tests append garbage to.
RESUME_ARGV = ("campaign", "--operator", "OP_V", "--areas", "A9",
               "--locations", "2", "--runs", "1", "--duration", "30")


@pytest.fixture(scope="module")
def finished_checkpoint(tmp_path_factory):
    """The checkpoint of one finished ``RESUME_ARGV`` campaign."""
    path = tmp_path_factory.mktemp("ckpt") / "done.ckpt"
    assert run_repro(*RESUME_ARGV, "--checkpoint", str(path)).returncode == 0
    return path


@pytest.fixture(scope="module")
def campaign_outputs(tmp_path_factory):
    """One instrumented CLI campaign shared by the acceptance checks."""
    directory = tmp_path_factory.mktemp("obs")
    metrics = directory / "m.json"
    spans = directory / "s.jsonl"
    code = main(CAMPAIGN_ARGV + ["--metrics-out", str(metrics),
                                 "--trace-out", str(spans)])
    assert code == 0
    return metrics, spans


class TestCampaignMetricsOut:
    def test_metrics_json_reconciles(self, campaign_outputs):
        metrics, _ = campaign_outputs
        data = json.loads(metrics.read_text())
        counters = data["counters"]
        scheduled = sum(
            counters["campaign_runs_scheduled_total"].values())
        completed = sum(
            counters["campaign_runs_completed_total"].values())
        quarantined = sum(
            counters.get("campaign_runs_quarantined_total", {}).values())
        assert scheduled == 4
        assert scheduled == completed + quarantined

    def test_per_stage_timers_non_zero(self, campaign_outputs):
        metrics, _ = campaign_outputs
        stages = json.loads(metrics.read_text())["histograms"][
            "stage_seconds"]
        for stage in ("simulate", "extract_cellsets", "detect_loop",
                      "classify", "loop_metrics", "collect_stats"):
            entry = stages[f"stage={stage}"]
            assert entry["count"] == 4
            assert entry["sum"] > 0.0

    def test_spans_jsonl_structurally_sound(self, campaign_outputs):
        _, spans_path = campaign_outputs
        spans = parse_spans_jsonl(spans_path.read_text())
        assert verify_span_tree(spans) == []
        roots = [span for span in spans if span.parent_id is None]
        assert [root.name for root in roots] == ["campaign"]
        root = roots[0]
        runs = [span for span in spans if span.parent_id == root.span_id]
        assert len(runs) == 4
        # Root outlives the (sequential, non-overlapping) children.
        assert root.duration_s >= sum(span.duration_s for span in runs) - 1e-9

    def test_identical_seeds_identical_counters(self, campaign_outputs,
                                                tmp_path):
        first, _ = campaign_outputs
        second = tmp_path / "again.json"
        assert main(CAMPAIGN_ARGV + ["--metrics-out", str(second)]) == 0
        first_counters = json.loads(first.read_text())["counters"]
        second_counters = json.loads(second.read_text())["counters"]
        assert first_counters == second_counters

    def test_prometheus_export_by_extension(self, tmp_path):
        path = tmp_path / "metrics.prom"
        argv = ["campaign", "--operator", "OP_V", "--areas", "A9",
                "--locations", "1", "--runs", "1", "--duration", "60",
                "--metrics-out", str(path)]
        assert main(argv) == 0
        text = path.read_text()
        assert "# TYPE campaign_runs_scheduled_total counter" in text
        assert "stage_seconds_bucket" in text

    def test_progress_flag_writes_stderr(self, capsys):
        argv = ["campaign", "--operator", "OP_V", "--areas", "A9",
                "--locations", "1", "--runs", "1", "--duration", "60",
                "--progress"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "ok=1" in err
        assert "[1/1]" in err

    def test_pool_workers_stay_out_of_the_coordinators_sinks(self):
        # A fork pool worker starts with a copy of the coordinator's
        # event log and its stderr sinks; the pool initializer drops it,
        # so each run is reported once and only the coordinator draws
        # the progress line (started, two runs, final line).
        completed = run_repro(
            "campaign", "--operator", "OP_V", "--areas", "A9",
            "--locations", "2", "--runs", "1", "--duration", "30",
            "--workers", "2", "--log-level", "debug", "--progress")
        err = completed.stderr.decode()  # bytes: keep the \r redraws
        assert completed.returncode == 0, err
        assert err.count(" run.completed key=") == 2
        assert err.count("\r[") == 4
        final = err.rsplit("\r", 1)[-1]
        assert final.startswith("[2/2] 100.0%  ok=2 quarantined=0 "
                                "timeout=0 restored=0 retries=0")
        assert final.endswith("\n")

    def test_event_records_start_their_own_lines(self):
        # The --log-level sink erases the --progress status line before
        # each record and redraws it after, so no record is appended to
        # the status line.
        completed = run_repro(
            "campaign", "--operator", "OP_V", "--areas", "A9",
            "--locations", "2", "--runs", "1", "--duration", "30",
            "--progress", "--log-level", "debug")
        err = completed.stderr.decode()
        assert completed.returncode == 0, err
        screen = on_screen(err)
        records = [line for line in screen if EVENT_RECORD.search(line)]
        assert [line.split()[2] for line in records] == [
            "campaign.started", "run.completed", "run.completed",
            "campaign.finished"]
        assert all(EVENT_RECORD.match(line) for line in records), records
        assert screen[-2].startswith("[2/2] 100.0%  ok=2 ")

    def test_logging_warnings_start_their_own_lines(self, tmp_path):
        # --progress alone mirrors warnings through a sink that shares
        # the status line, so a stdlib logging warning (the checkpoint
        # skipping a corrupt line on resume) is not appended to it.
        checkpoint = tmp_path / "c.ckpt"
        argv = ("campaign", "--operator", "OP_V", "--areas", "A9",
                "--locations", "2", "--runs", "1", "--duration", "30",
                "--checkpoint", str(checkpoint))
        assert run_repro(*argv).returncode == 0
        with checkpoint.open("a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        completed = run_repro(*argv, "--resume", "--progress")
        err = completed.stderr.decode()
        assert completed.returncode == 0, err
        screen = on_screen(err)
        warnings = [line for line in screen
                    if "checkpoint.lines_skipped" in line]
        assert len(warnings) == 1, screen
        assert all(EVENT_RECORD.match(line) for line in warnings), screen
        assert screen[-2].startswith("[2/2] 100.0%  ok=2 ")

    @pytest.mark.parametrize("flags", [[], ["--log-level", "warning"],
                                       ["--log-json"], ["--progress"]])
    def test_a_skipped_checkpoint_line_is_reported_once(
            self, tmp_path, finished_checkpoint, flags):
        # The checkpoint emits an event and logs the same decision for
        # readers without the event stream; with the logging bridge
        # attached, the log record is not bridged a second time.
        checkpoint = tmp_path / "c.ckpt"
        checkpoint.write_bytes(finished_checkpoint.read_bytes()
                               + b"garbage\n")
        completed = run_repro(*RESUME_ARGV, "--checkpoint", str(checkpoint),
                              "--resume", *flags)
        err = completed.stderr.decode()
        assert completed.returncode == 0, err
        reports = [line for line in on_screen(err)
                   if "lines_skipped" in line or "corrupt line" in line]
        assert len(reports) == 1, err

    def test_no_flags_no_observability_files(self, tmp_path, capsys):
        argv = ["campaign", "--operator", "OP_V", "--areas", "A9",
                "--locations", "1", "--runs", "1", "--duration", "60"]
        assert main(argv) == 0
        assert "wrote metrics" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSigintFlush:
    """Satellite: interrupted campaigns flush telemetry before the hint."""

    class _InterruptingRunner:
        def __init__(self, profiles, config, obs=None, **kwargs):
            self.obs = obs

        def run(self):
            if self.obs is not None and self.obs.enabled:
                self.obs.registry.counter(
                    "campaign_runs_scheduled_total").inc(3)
                self.obs.registry.counter(
                    "campaign_runs_completed_total").inc(2)
                with self.obs.tracer.span("campaign"):
                    raise KeyboardInterrupt()
            raise KeyboardInterrupt()

    @pytest.fixture
    def interrupting(self, monkeypatch):
        monkeypatch.setattr(cli, "CampaignRunner",
                            self._InterruptingRunner)

    def test_flushes_metrics_and_spans_before_resume_hint(
            self, interrupting, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        spans = tmp_path / "s.jsonl"
        code = main(["campaign", "--checkpoint", str(tmp_path / "c.ckpt"),
                     "--metrics-out", str(metrics),
                     "--trace-out", str(spans)])
        assert code == 130
        data = json.loads(metrics.read_text())
        assert sum(data["counters"]["campaign_runs_scheduled_total"]
                   .values()) == 3
        exported = parse_spans_jsonl(spans.read_text())
        assert [span.name for span in exported] == ["campaign"]
        assert exported[0].status == "error"
        err = capsys.readouterr().err
        assert "interrupted" in err
        # The snapshot lands before the resume hint.
        assert err.index("wrote metrics snapshot") \
            < err.index("resume with --checkpoint")

    def test_progress_snapshot_on_interrupt(self, interrupting, capsys):
        code = main(["campaign", "--progress"])
        assert code == 130
        err = capsys.readouterr().err
        assert "progress snapshot:" in err
        assert err.index("progress snapshot:") < err.index("interrupted")

    def test_uninstrumented_interrupt_keeps_plain_hint(self, interrupting,
                                                       capsys):
        code = main(["campaign"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "wrote metrics" not in err


class TestProfileCommand:
    def test_profile_prints_stage_table_and_reconciles(self, capsys):
        code = main(["profile", "--seed", "42", "--operator", "OP_V",
                     "--areas", "A9", "--locations", "1", "--runs", "2",
                     "--duration", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stage" in out and "calls" in out and "share" in out
        assert "simulate" in out
        assert "metrics reconciliation: ok" in out
        assert "2 scheduled, 2 completed" in out

    def test_profile_writes_outputs(self, tmp_path, capsys):
        metrics = tmp_path / "profile.json"
        spans = tmp_path / "profile.jsonl"
        code = main(["profile", "--seed", "42", "--operator", "OP_V",
                     "--areas", "A9", "--locations", "1", "--runs", "1",
                     "--duration", "60", "--metrics-out", str(metrics),
                     "--trace-out", str(spans)])
        assert code == 0
        data = json.loads(metrics.read_text())
        assert sum(data["counters"]["campaign_runs_scheduled_total"]
                   .values()) == 1
        assert verify_span_tree(
            parse_spans_jsonl(spans.read_text())) == []

    def test_profile_reconciles_and_workers_2_counters_match(
            self, tmp_path, capsys):
        """``repro profile --seed 42`` at its defaults, under
        ``--workers 1`` and ``--workers 2``: the metrics export
        reconciles, the parallel run exports exactly the sequential
        run's counters, and both span files pass the span check."""
        snapshots = {}
        for workers in (1, 2):
            metrics = tmp_path / f"metrics-w{workers}.json"
            spans = tmp_path / f"spans-w{workers}.jsonl"
            assert main(["profile", "--seed", "42", "--workers",
                         str(workers), "--metrics-out", str(metrics),
                         "--trace-out", str(spans)]) == 0
            snapshots[workers] = json.loads(metrics.read_text())
            # Pool runs overlap across worker processes; the span check
            # compares spans of one process only.
            assert verify_span_tree(
                parse_spans_jsonl(spans.read_text())) == []
        counters = snapshots[1]["counters"]

        def total(name):
            return sum(counters.get(name, {}).values())

        scheduled = total("campaign_runs_scheduled_total")
        assert scheduled > 0
        assert scheduled == total("campaign_runs_completed_total") \
            + total("campaign_runs_quarantined_total")
        assert snapshots[2]["counters"] == counters

    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.seed == 42
        assert args.locations == 2
        assert args.runs == 2


class TestCampaignParserFlags:
    def test_parser_accepts_observability_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--metrics-out", "m.json", "--trace-out",
             "s.jsonl", "--progress", "--seed", "5"])
        assert args.metrics_out == "m.json"
        assert args.trace_out == "s.jsonl"
        assert args.progress
        assert args.seed == 5
