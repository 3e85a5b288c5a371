"""Campaign supervision: deadlines, crash containment, graceful stop.

Three layers under test:

* the cooperative deadline primitives (:mod:`repro.core.deadline`) and
  the circuit breaker / parent-wait-budget units,
* the in-process path: a run that blows its wall-clock budget flows
  through retry and quarantines as a :class:`RunTimeoutError` with its
  own progress tally,
* the supervised pool path: hung workers are killed on the parent-side
  future deadline and crashed workers (``os._exit``) are contained by a
  pool rebuild, with the in-flight keys rescheduled — and absent any
  fault, results stay bit-identical to sequential execution.

The pool tests monkeypatch ``repro.campaign.runner.run_once`` (the
module global the worker entry point resolves at call time): patching
happens before the pool forks, so the children inherit the patched
module — unlike a ``run_fn=`` hook, which deliberately forces the
in-process fallback.
"""

import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignConfig, CampaignRunner, operator
from repro.campaign import runner as runner_module
from repro.campaign.runner import run_once
from repro.core.deadline import (
    Deadline,
    RunTimeoutError,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.obs import StderrProgressReporter, make_instrumentation
from repro.resilience.supervision import (
    CircuitBreaker,
    CircuitBreakerOpen,
    ShutdownRequested,
    graceful_shutdown,
    parent_wait_budget,
)
from tests.test_obs_metrics import FakeClock


def small_config(**overrides) -> CampaignConfig:
    defaults = dict(area_names=["A9"], locations_per_area=2,
                    runs_per_location=2, duration_s=60)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def run_campaign(config: CampaignConfig, **runner_kwargs):
    obs = make_instrumentation(clock=FakeClock())
    result = CampaignRunner([operator("OP_V")], config,
                            obs=obs, **runner_kwargs).run()
    return obs, result


# ----------------------------------------------------------------------
# Cooperative deadline primitives
# ----------------------------------------------------------------------


class TestDeadline:
    def test_check_raises_after_budget(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        deadline.check("early")
        clock.advance(5.0)
        deadline.check("on the line")  # inclusive: exactly on budget is ok
        clock.advance(0.1)
        with pytest.raises(RunTimeoutError) as info:
            deadline.check("detect_loop")
        assert info.value.stage == "detect_loop"
        assert info.value.budget_s == 5.0
        assert info.value.elapsed_s == pytest.approx(5.1)
        assert "detect_loop" in str(info.value)

    def test_scope_installs_and_restores(self):
        assert current_deadline() is None
        with deadline_scope(1.0) as outer:
            assert current_deadline() is outer
            with deadline_scope(2.0) as inner:
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_none_budget_installs_nothing(self):
        with deadline_scope(None) as nothing:
            assert nothing is None
            assert current_deadline() is None
            check_deadline("anywhere")  # no-op

    def test_check_deadline_fires_inside_scope(self):
        clock = FakeClock()
        with deadline_scope(0.5, clock=clock):
            check_deadline("simulate")
            clock.advance(1.0)
            with pytest.raises(RunTimeoutError):
                check_deadline("simulate")

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestParentWaitBudget:
    def test_covers_the_whole_retry_envelope(self):
        # One attempt + two retries at 10s each, plus 50% slack.
        assert parent_wait_budget(10.0, 2) == pytest.approx(45.0)

    def test_no_retries_still_gets_slack(self):
        assert parent_wait_budget(2.0, 0) == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_past_max_rebuilds(self):
        breaker = CircuitBreaker(max_rebuilds=2)
        breaker.record_rebuild("hung run")
        breaker.record_rebuild("worker crash")
        with pytest.raises(CircuitBreakerOpen) as info:
            breaker.record_rebuild("worker crash")
        assert "3 pool rebuilds" in str(info.value)
        assert "worker crash" in str(info.value)

    def test_trips_on_consecutive_failures(self):
        breaker = CircuitBreaker(max_consecutive_failures=3)
        breaker.record_failure("quarantine", ("OP", "A", "L", 0))
        breaker.record_failure("quarantine", ("OP", "A", "L", 1))
        with pytest.raises(CircuitBreakerOpen) as info:
            breaker.record_failure("quarantine", ("OP", "A", "L", 2))
        assert "3 consecutive" in str(info.value)
        assert "OP/A/L/2" in str(info.value)

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(max_consecutive_failures=2)
        for index in range(5):
            breaker.record_failure("quarantine", ("OP", "A", "L", index))
            breaker.record_success()
        assert breaker.failures_total == 5
        assert breaker.consecutive_failures == 0

    def test_zero_disables_the_streak_check(self):
        breaker = CircuitBreaker(max_consecutive_failures=0)
        for index in range(50):
            breaker.record_failure("quarantine", ("OP", "A", "L", index))

    def test_event_log_is_bounded(self):
        breaker = CircuitBreaker(max_rebuilds=10 ** 6)
        for index in range(100):
            breaker.record_rebuild(f"reason-{index}")
        assert len(breaker.events) == CircuitBreaker.EVENT_LIMIT
        assert breaker.events[-1] == "pool rebuild (reason-99)"


# ----------------------------------------------------------------------
# In-process run deadlines
# ----------------------------------------------------------------------


def make_slow_run_fn(delay_s: float):
    def slow_run_fn(deployment, profile, device, point, location_name,
                    run_index, duration_s=300, keep_trace=False):
        time.sleep(delay_s)
        return run_once(deployment, profile, device, point, location_name,
                        run_index, duration_s=duration_s,
                        keep_trace=keep_trace)
    return slow_run_fn


class TestInProcessDeadline:
    def test_overrunning_run_quarantines_as_timeout(self):
        stream = io.StringIO()
        progress = StderrProgressReporter(stream=stream, clock=FakeClock())
        obs = make_instrumentation(clock=FakeClock(), progress=progress)
        config = small_config(locations_per_area=1, runs_per_location=2,
                              run_timeout_s=0.005)
        result = CampaignRunner([operator("OP_V")], config, obs=obs,
                                run_fn=make_slow_run_fn(0.05)).run()
        assert result.completed == 0
        assert len(result.quarantined) == 2
        assert all(q.error.startswith("RunTimeoutError")
                   for q in result.quarantined)
        assert result.reconciles()
        assert obs.registry.counter(
            "campaign_run_timeouts_total").total() == 2
        # Timed-out runs get their own progress tally, not "quarantined".
        assert progress.timed_out == 2
        assert progress.quarantined == 0
        assert "timeout=2" in progress.render()

    def test_timeouts_flow_through_retry(self):
        obs = make_instrumentation(clock=FakeClock())
        config = small_config(locations_per_area=1, runs_per_location=1,
                              run_timeout_s=0.005, max_retries=2)
        result = CampaignRunner([operator("OP_V")], config, obs=obs,
                                run_fn=make_slow_run_fn(0.05)).run()
        assert len(result.quarantined) == 1
        assert result.quarantined[0].attempts == 3

    def test_generous_budget_changes_nothing(self):
        plain = run_campaign(small_config())
        budgeted = run_campaign(small_config(run_timeout_s=3600.0))
        assert [run.analysis for run in budgeted[1].runs] \
            == [run.analysis for run in plain[1].runs]
        assert budgeted[0].registry.snapshot()["counters"] \
            == plain[0].registry.snapshot()["counters"]

    def test_consecutive_failure_breaker_fails_fast(self):
        def always_fails(*args, **kwargs):
            raise ValueError("measurement rig offline")

        config = small_config(breaker_max_consecutive_failures=2)
        with pytest.raises(CircuitBreakerOpen) as info:
            CampaignRunner([operator("OP_V")], config,
                           run_fn=always_fails).run()
        assert "2 consecutive" in str(info.value)


# ----------------------------------------------------------------------
# Supervised pool: hung and crashed workers
# ----------------------------------------------------------------------


def hang_first_run(deployment, profile, device, point, location_name,
                   run_index, duration_s=300, keep_trace=False):
    """A run_once stand-in that hangs (non-cooperatively) on one key."""
    if location_name.endswith("-P1") and run_index == 0:
        time.sleep(300)
    return run_once(deployment, profile, device, point, location_name,
                    run_index, duration_s=duration_s, keep_trace=keep_trace)


def make_crashing_run_once(marker_path, location_suffix="-P1",
                           crash_once=True):
    """Crash the worker process (os._exit) on one key.

    ``crash_once``: a marker file makes only the first attempt die, so
    the rescheduled attempt after the pool rebuild succeeds.
    """
    def crashing_run_once(deployment, profile, device, point, location_name,
                          run_index, duration_s=300, keep_trace=False):
        if location_name.endswith(location_suffix) and run_index == 0:
            if not (crash_once and os.path.exists(marker_path)):
                with open(marker_path, "w") as handle:
                    handle.write("crashed")
                os._exit(1)
        return run_once(deployment, profile, device, point, location_name,
                        run_index, duration_s=duration_s,
                        keep_trace=keep_trace)
    return crashing_run_once


class TestPoolSupervision:
    def test_hung_worker_is_killed_and_run_quarantined(self, monkeypatch):
        monkeypatch.setattr(runner_module, "run_once", hang_first_run)
        obs, result = run_campaign(
            small_config(workers=2, run_timeout_s=0.2))
        assert len(result.quarantined) == 1
        assert result.quarantined[0].error.startswith("RunTimeoutError")
        assert result.completed == 3
        assert result.reconciles()
        assert obs.registry.counter(
            "campaign_pool_rebuilds_total").total() == 1
        assert obs.registry.counter(
            "campaign_run_timeouts_total").total() == 1

    def test_crashed_worker_rebuild_then_results_match_sequential(
            self, tmp_path, monkeypatch):
        _, expected = run_campaign(small_config())
        monkeypatch.setattr(
            runner_module, "run_once",
            make_crashing_run_once(str(tmp_path / "crashed.marker")))
        obs, result = run_campaign(
            small_config(workers=2, max_retries=1))
        # The crash-once run was retried after the rebuild: no quarantine,
        # and the merged results are the sequential ones, bit-identical.
        assert result.quarantined == expected.quarantined == []
        assert [run.metadata for run in result.runs] \
            == [run.metadata for run in expected.runs]
        assert [run.analysis for run in result.runs] \
            == [run.analysis for run in expected.runs]
        assert obs.registry.counter(
            "campaign_pool_rebuilds_total").total() >= 1

    def test_always_crashing_run_is_quarantined_as_crash(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            runner_module, "run_once",
            make_crashing_run_once(str(tmp_path / "unused.marker"),
                                   crash_once=False))
        obs, result = run_campaign(small_config(workers=2))
        assert len(result.quarantined) == 1
        assert result.quarantined[0].error.startswith("WorkerCrashError")
        assert result.completed == 3
        assert result.reconciles()

    def test_rebuild_storm_trips_the_breaker(self, tmp_path, monkeypatch):
        def always_crashes(deployment, profile, device, point, location_name,
                           run_index, duration_s=300, keep_trace=False):
            os._exit(1)

        monkeypatch.setattr(runner_module, "run_once", always_crashes)
        with pytest.raises(CircuitBreakerOpen) as info:
            run_campaign(small_config(workers=2, breaker_max_rebuilds=2))
        assert "pool rebuilds" in str(info.value)


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------


class TestGracefulShutdown:
    def test_sigterm_raises_shutdown_requested(self):
        with pytest.raises(ShutdownRequested) as info:
            with graceful_shutdown():
                os.kill(os.getpid(), signal.SIGTERM)
        assert info.value.signum == signal.SIGTERM

    def test_sigint_raises_shutdown_requested(self):
        # Ctrl-C takes the same drain-flush-resume path as SIGTERM; the
        # CLI distinguishes them only by exit code (128 + signum = 130).
        with pytest.raises(ShutdownRequested) as info:
            with graceful_shutdown():
                os.kill(os.getpid(), signal.SIGINT)
        assert info.value.signum == signal.SIGINT

    def test_previous_handlers_restored_for_both_signals(self):
        previous = {signum: signal.getsignal(signum)
                    for signum in (signal.SIGTERM, signal.SIGINT)}
        with graceful_shutdown():
            for signum, handler in previous.items():
                assert signal.getsignal(signum) is not handler
        for signum, handler in previous.items():
            assert signal.getsignal(signum) is previous[signum]

    def test_non_main_thread_degrades_to_noop(self):
        # Installing signal handlers is illegal off the main thread; the
        # context manager must neither crash nor leave handlers changed.
        previous = {signum: signal.getsignal(signum)
                    for signum in (signal.SIGTERM, signal.SIGINT)}
        failures = []

        def library_caller():
            try:
                with graceful_shutdown():
                    for signum, handler in previous.items():
                        if signal.getsignal(signum) is not handler:
                            failures.append(signum)
            except BaseException as exc:  # noqa: BLE001 - test harness
                failures.append(exc)

        import threading
        thread = threading.Thread(target=library_caller)
        thread.start()
        thread.join()
        assert failures == []
        for signum, handler in previous.items():
            assert signal.getsignal(signum) is handler

    def test_shutdown_requested_is_not_an_exception(self):
        # It must bypass `except Exception` (the retry loop) like
        # KeyboardInterrupt does.
        assert not issubclass(ShutdownRequested, Exception)
        assert issubclass(ShutdownRequested, BaseException)


class TestKillAndResume:
    """SIGTERM a live parallel campaign, then resume from its checkpoint."""

    def test_sigterm_mid_campaign_then_resume_reconciles(self, tmp_path):
        checkpoint = tmp_path / "campaign.ckpt"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign",
             "--operator", "OP_V", "--areas", "A9",
             "--locations", "3", "--runs", "3", "--duration", "120",
             "--workers", "2", "--seed", "0",
             "--checkpoint", str(checkpoint)],
            env={**os.environ,
                 "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            # Wait until at least one run landed in the checkpoint, then
            # pull the plug the way a fleet scheduler would.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and process.poll() is None:
                if checkpoint.exists() and checkpoint.stat().st_size > 0:
                    break
                time.sleep(0.05)
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        # 143 = graceful SIGTERM stop; 0 = the campaign won the race.
        assert process.returncode in (0, 143), stderr
        if process.returncode == 143:
            assert "resume with --checkpoint" in stderr

        # Resume with the schedule-identical config (what the CLI builds
        # for the flags above): the identity header must accept it, and
        # the combined restored + re-executed runs must reconcile.
        config = CampaignConfig(
            duration_s=120, locations_per_area=3, a1_locations=3,
            runs_per_location=3, a1_runs_per_location=3,
            area_names=["A9"], seed=0,
            checkpoint_path=checkpoint, resume=True, workers=2)
        obs = make_instrumentation(clock=FakeClock())
        result = CampaignRunner([operator("OP_V")], config, obs=obs).run()
        assert result.scheduled == 9
        assert result.completed == 9
        assert result.reconciles()
