"""Campaign telemetry: counters reconcile, spans nest, progress tallies.

Includes the chaos-harness reconciliation required by the
observability acceptance: under injected run failures and trace
corruption, ``runs_scheduled == runs_completed + runs_quarantined`` and
``retries_total`` matches the quarantine/attempts ledger exactly.
"""

import io

import pytest

from repro.campaign import CampaignConfig, CampaignRunner, operator
from repro.obs import (
    Event,
    StderrProgressReporter,
    get_instrumentation,
    instrumented,
    make_instrumentation,
    verify_span_tree,
)
from tests.chaos.harness import ChaosConfig, ChaosHarness
from tests.test_obs_metrics import FakeClock

MINI = CampaignConfig(locations_per_area=2, a1_locations=2,
                      runs_per_location=2, a1_runs_per_location=2,
                      duration_s=60, area_names=["A9"])


def run_instrumented(config: CampaignConfig = MINI, profiles=None):
    obs = make_instrumentation(clock=FakeClock())
    result = CampaignRunner(profiles or [operator("OP_V")], config,
                            obs=obs).run()
    return obs, result


class TestCampaignCounters:
    def test_counters_mirror_result_accounting(self):
        obs, result = run_instrumented()
        registry = obs.registry
        assert registry.counter("campaign_runs_scheduled_total").total() \
            == result.scheduled == 4
        assert registry.counter("campaign_runs_completed_total").total() \
            == result.completed
        assert registry.counter("campaign_runs_quarantined_total").total() \
            == len(result.quarantined)
        assert registry.counter("pipeline_runs_analyzed_total").total() \
            == result.completed

    def test_loop_counters_match_analyses(self):
        obs, result = run_instrumented()
        loops = sum(1 for run in result.runs if run.has_loop)
        assert obs.registry.counter(
            "pipeline_loops_detected_total").total() == loops

    def test_stage_timers_recorded_per_run(self):
        obs, result = run_instrumented()
        histogram = obs.registry.histogram("stage_seconds")
        for stage in ("simulate", "extract_cellsets", "detect_loop",
                      "collect_stats"):
            assert histogram.count(stage=stage) == result.completed

    def test_identical_seeds_identical_counters(self):
        first, _ = run_instrumented()
        second, _ = run_instrumented()
        assert first.registry.snapshot()["counters"] \
            == second.registry.snapshot()["counters"]

    def test_active_bundle_restored_after_run(self):
        ambient = get_instrumentation()
        run_instrumented()
        assert get_instrumentation() is ambient


class TestCampaignSpans:
    def test_span_hierarchy_and_integrity(self):
        obs, result = run_instrumented()
        tracer = obs.tracer
        assert verify_span_tree(tracer.spans()) == []
        roots = tracer.roots()
        assert [root.name for root in roots] == ["campaign"]
        runs = tracer.children_of(roots[0])
        assert [span.name for span in runs] == ["run"] * result.scheduled
        for run_span in runs:
            children = {child.name
                        for child in tracer.children_of(run_span)}
            assert children == {"simulate", "analyze"}

    def test_run_span_attributes(self):
        obs, _ = run_instrumented()
        run_span = next(span for span in obs.tracer.spans()
                        if span.name == "run")
        assert run_span.attributes["operator"] == "OP_V"
        assert run_span.attributes["area"] == "A9"
        assert run_span.attributes["outcome"] == "completed"
        assert run_span.attributes["attempts"] == 1


K = ("OP", "A", "P", 0)


def feed(progress, *events):
    """Fold ``(name, fields)`` pairs through the sink as events."""
    for name, fields in events:
        progress(Event(name=name, run_key=K, fields=fields))


class TestProgressReporting:
    def test_reporter_tallies_and_snapshot(self):
        clock = FakeClock()
        stream = io.StringIO()
        progress = StderrProgressReporter(stream=stream, clock=clock)
        obs = make_instrumentation(clock=clock)
        obs.events.add_sink(progress)
        result = CampaignRunner([operator("OP_V")], MINI, obs=obs).run()
        snapshot = progress.snapshot()
        assert snapshot["total"] == result.scheduled == 4
        assert snapshot["completed"] == result.completed
        assert snapshot["quarantined"] == len(result.quarantined)
        assert snapshot["done"] == result.scheduled
        assert "ok=" in stream.getvalue()
        assert stream.getvalue().endswith("\n")  # final line flushed

    def test_pool_kill_repaints_status_line(self):
        # A kill must redraw immediately: a long crash storm with no
        # completions would otherwise leave a stale line on screen.
        stream = io.StringIO()
        progress = StderrProgressReporter(stream=stream, clock=FakeClock())
        feed(progress, ("campaign.started", {"scheduled": 4}))
        painted = stream.getvalue()
        feed(progress, ("supervision.worker_crash", {}))
        repaint = stream.getvalue()[len(painted):]
        assert "retries=1" in repaint
        assert progress.snapshot()["retries"] == 1

    def test_rate_and_eta_from_fake_clock(self):
        clock = FakeClock()
        progress = StderrProgressReporter(stream=io.StringIO(), clock=clock)
        feed(progress, ("campaign.started", {"scheduled": 10}))
        clock.advance(2.0)
        feed(progress, ("run.completed", {"attempts": 1}),
             ("run.completed", {"attempts": 1}))
        assert progress.rate_per_s() == pytest.approx(1.0)
        assert progress.eta_s() == pytest.approx(8.0)
        assert "2.1" not in progress.render()
        assert "eta 8s" in progress.render()


class TestProgressFold:
    """The event → tally fold, one event sequence at a time."""

    @staticmethod
    def fold(*events):
        progress = StderrProgressReporter(stream=io.StringIO(),
                                          clock=FakeClock())
        feed(progress, ("campaign.started", {"scheduled": 3}), *events)
        snapshot = progress.snapshot()
        return {name: value for name, value in snapshot.items()
                if name not in ("elapsed_s", "rate_per_s")
                and value}

    def test_outcomes_and_in_worker_retries(self):
        assert self.fold(
            ("run.completed", {"attempts": 3}),
            ("run.quarantined", {"attempts": 2, "timed_out": False}),
            ("run.quarantined", {"attempts": 1, "timed_out": True}),
        ) == {"total": 3, "done": 3, "completed": 1, "quarantined": 1,
              "timed_out": 1, "retries": 3}

    def test_restored_runs_count_as_completed(self):
        assert self.fold(("run.restored", {}), ("run.restored", {})) \
            == {"total": 3, "done": 2, "completed": 2, "restored": 2}

    def test_resubmitted_kills_are_retries(self):
        assert self.fold(
            ("supervision.hung_run", {"budget_s": 1.0}),
            ("supervision.worker_crash", {"error": "BrokenProcessPool"}),
            ("run.completed", {"attempts": 2}),
        ) == {"total": 3, "done": 1, "completed": 1, "retries": 3}

    def test_kill_before_supervision_quarantine_was_not_resubmitted(self):
        assert self.fold(
            ("supervision.worker_crash", {"error": "BrokenProcessPool"}),
            ("supervision.worker_crash", {"error": "BrokenProcessPool"}),
            ("supervision.quarantined", {"attempts": 2, "timed_out": False}),
            ("supervision.hung_run", {"budget_s": 1.0}),
            ("supervision.quarantined", {"attempts": 1, "timed_out": True}),
        ) == {"total": 3, "done": 2, "quarantined": 1, "timed_out": 1,
              "retries": 1}

    def test_kill_that_trips_the_breaker_was_not_resubmitted(self):
        assert self.fold(
            ("supervision.worker_crash", {"error": "BrokenProcessPool"}),
            ("pool.rebuild", {"reason": "worker crash"}),
            ("breaker.open", {"reason": "4 pool rebuilds"}),
            ("campaign.aborted", {"error": "CircuitBreakerOpen"}),
        ) == {"total": 3}

    def test_breaker_without_a_kill_takes_nothing_back(self):
        assert self.fold(
            ("run.quarantined", {"attempts": 2, "timed_out": False}),
            ("breaker.open", {"reason": "1 consecutive run failures"}),
        ) == {"total": 3, "done": 1, "quarantined": 1, "retries": 1}

    def test_other_events_do_not_redraw(self):
        stream = io.StringIO()
        progress = StderrProgressReporter(stream=stream, clock=FakeClock())
        feed(progress, ("run.retry", {"attempt": 1}),
             ("queue.run_stolen", {}), ("campaign.aborted", {}))
        assert stream.getvalue() == ""  # nothing started, nothing drawn

    def test_final_line_written_once(self):
        stream = io.StringIO()
        progress = StderrProgressReporter(stream=stream, clock=FakeClock())
        feed(progress, ("campaign.started", {"scheduled": 1}),
             ("run.completed", {"attempts": 1}),
             ("campaign.finished", {}), ("campaign.aborted", {}))
        assert stream.getvalue().count("\n") == 1
        assert stream.getvalue().endswith("[1/1] 100.0%  ok=1 "
                                          "quarantined=0 timeout=0 "
                                          "restored=0 retries=0\n")


class TestCheckpointRestoreTelemetry:
    def test_restored_runs_counted(self, tmp_path):
        config = CampaignConfig(locations_per_area=1, a1_locations=1,
                                runs_per_location=2, a1_runs_per_location=2,
                                duration_s=60, area_names=["A9"],
                                checkpoint_path=tmp_path / "c.ckpt")
        CampaignRunner([operator("OP_V")], config).run()

        resume_config = CampaignConfig(
            locations_per_area=1, a1_locations=1, runs_per_location=2,
            a1_runs_per_location=2, duration_s=60, area_names=["A9"],
            checkpoint_path=tmp_path / "c.ckpt", resume=True)
        obs = make_instrumentation(clock=FakeClock())
        result = CampaignRunner([operator("OP_V")], resume_config,
                                obs=obs).run()
        registry = obs.registry
        assert registry.counter("campaign_runs_restored_total").total() \
            == result.completed == 2
        assert registry.counter("campaign_runs_completed_total").total() == 2
        # Restored runs re-parse their checkpointed traces.
        assert registry.counter("trace_records_parsed_total").total() > 0
        restored_spans = [span for span in obs.tracer.spans()
                          if span.name == "run"]
        assert all(span.attributes.get("restored") for span in restored_spans)
        assert verify_span_tree(obs.tracer.spans()) == []


class TestChaosMetricsReconcile:
    """Satellite: telemetry reconciles under fault injection."""

    def _chaos_report(self):
        config = CampaignConfig(locations_per_area=3, a1_locations=3,
                                runs_per_location=3, a1_runs_per_location=3,
                                duration_s=60, area_names=["A9"],
                                max_retries=2)
        harness = ChaosHarness(
            [operator("OP_V")], config,
            ChaosConfig(seed=11, run_failure_rate=0.2,
                        transient_failure_rate=0.3, fault_rate=0.05))
        obs = make_instrumentation(clock=FakeClock())
        with instrumented(obs):
            report = harness.run()
        return obs, harness, report

    def test_scheduled_equals_completed_plus_quarantined(self):
        obs, _, report = self._chaos_report()
        registry = obs.registry
        scheduled = registry.counter("campaign_runs_scheduled_total").total()
        completed = registry.counter("campaign_runs_completed_total").total()
        quarantined = registry.counter(
            "campaign_runs_quarantined_total").total()
        assert scheduled == completed + quarantined
        assert scheduled == report.result.scheduled == 9
        assert quarantined > 0, "chaos config must quarantine something"
        assert report.reconciles()

    def test_retries_total_matches_attempt_ledger(self):
        obs, harness, report = self._chaos_report()
        ledger = harness.attempts_ledger()
        expected_retries = sum(attempts - 1 for attempts in ledger.values())
        assert expected_retries > 0, "chaos config must retry something"
        registry = obs.registry
        assert registry.counter("campaign_run_retries_total").total() \
            == expected_retries
        assert registry.counter("retry_retries_total").total() \
            == expected_retries
        # Quarantined runs each burned the full retry budget.
        for entry in report.result.quarantined:
            assert ledger[entry.key] == entry.attempts == 3

    def test_retry_histograms_recorded(self):
        obs, harness, _ = self._chaos_report()
        registry = obs.registry
        attempts = registry.histogram("retry_attempts")
        assert attempts.count() == len(harness.attempts_ledger())
        assert attempts.sum() == sum(harness.attempts_ledger().values())
        backoffs = registry.histogram("retry_backoff_seconds")
        assert backoffs.count() == registry.counter(
            "campaign_run_retries_total").total()
        assert backoffs.sum() > 0.0

    def test_skipped_record_counters_tie_to_error_taxonomy(self):
        obs, _, report = self._chaos_report()
        tallies = report.total_parse_tallies()
        registry = obs.registry
        assert registry.counter("trace_records_parsed_total").total() \
            == tallies["parsed_records"]
        skipped = registry.counter("trace_records_skipped_total")
        for error_class, count in tallies["errors_by_class"].items():
            assert skipped.value(error=error_class) == count
        assert skipped.total() == tallies["skipped_records"]

    def test_chaos_telemetry_deterministic(self):
        first, _, _ = self._chaos_report()
        second, _, _ = self._chaos_report()
        assert first.registry.snapshot()["counters"] \
            == second.registry.snapshot()["counters"]
