"""Pins on what a campaign produces, independent of how it executes.

Two kinds of pin:

* the sequential path, observed from the outside: for a fresh run with
  injected failures and for a resume over a checkpoint with one corrupt
  trace, the exact event stream, progress-callback sequence, counters,
  span tree (names, parents, run-span attributes), result and
  checkpoint bytes;
* checkpoint bytes of a seeded fixture campaign (six areas across the
  three operators, one 60 s run each), as a SHA-256 that must hold for
  sequential and pool execution alike, plus a pool resume over a
  partial checkpoint with a corrupt entry that must match the
  sequential resume byte for byte.

The expected values were recorded from the code before the scheduler
unification; any change to them is a change of campaign output.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.campaign import CampaignConfig, CampaignRunner, operator
from repro.campaign.dataset import CampaignResult
from repro.campaign.runner import run_once
from repro.obs import ProgressReporter, make_instrumentation
from repro.resilience.checkpoint import CampaignCheckpoint
from tests.test_obs_metrics import FakeClock

K0 = ("OP_V", "A9", "A9-P1", 0)
K1 = ("OP_V", "A9", "A9-P1", 1)
K2 = ("OP_V", "A9", "A9-P2", 0)
K3 = ("OP_V", "A9", "A9-P2", 1)

#: SHA-256 of the fixture campaign's checkpoint (seed 0, one 60 s run in
#: each of OP_T A1/A2, OP_A A6/A7, OP_V A9/A10, OnePlus 12R).
FIXTURE_CHECKPOINT_SHA256 = \
    "552a89b70b2a9aa47d282f21f903d5ab097a6fc8c85c5ad22e5e051e2df4f784"


class RecordingProgress(ProgressReporter):
    """Every progress callback, in call order."""

    def __init__(self):
        self.calls = []

    def campaign_started(self, total_runs):
        self.calls.append(("campaign_started", total_runs))

    def run_completed(self, key):
        self.calls.append(("run_completed", key))

    def run_quarantined(self, key):
        self.calls.append(("run_quarantined", key))

    def run_timed_out(self, key):
        self.calls.append(("run_timed_out", key))

    def run_restored(self, key):
        self.calls.append(("run_restored", key))

    def run_retried(self, key, retries):
        self.calls.append(("run_retried", key, retries))

    def campaign_finished(self):
        self.calls.append(("campaign_finished",))


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Observed:
    """What one pinned campaign produced, in comparable form."""

    result: CampaignResult
    progress: list
    events: list
    counters: dict
    tree: list  # (span name, parent span name) in finish order
    run_attributes: list
    campaign_attributes: dict
    checkpoint_sha256: str


def run_pinned(config: CampaignConfig, **runner_kwargs) -> Observed:
    progress = RecordingProgress()
    obs = make_instrumentation(clock=FakeClock(), progress=progress)
    result = CampaignRunner([operator("OP_V")], config, obs=obs,
                            **runner_kwargs).run()
    spans = obs.tracer.spans()
    by_id = {span.span_id: span for span in spans}
    [campaign] = [span for span in spans if span.name == "campaign"]
    return Observed(
        result=result, progress=progress.calls,
        events=[(event.name, event.severity, event.campaign, event.run_key,
                 event.fields) for event in obs.events.recent(limit=10_000)],
        counters=obs.registry.snapshot()["counters"],
        tree=[(span.name, by_id[span.parent_id].name
               if span.parent_id is not None else None) for span in spans],
        run_attributes=[span.attributes for span in spans
                        if span.name == "run"],
        campaign_attributes=dict(campaign.attributes),
        checkpoint_sha256=sha256(Path(config.checkpoint_path)))


def rewrite_checkpoint(path, identity, corrupt=(), drop=()):
    """Re-append a checkpoint's entries, garbling or dropping some."""
    entries = CampaignCheckpoint(path).load()
    path.unlink()
    checkpoint = CampaignCheckpoint(path, identity=identity)
    for key, entry in entries.items():
        if key in drop:
            continue
        if not entry.succeeded:
            checkpoint.record_failure(key, entry.error, entry.attempts)
        else:
            checkpoint.record_success(
                key, "garbage\n" if key in corrupt else entry.trace_jsonl)


# ----------------------------------------------------------------------
# The sequential path
# ----------------------------------------------------------------------


def pin_config(path, **overrides) -> CampaignConfig:
    return CampaignConfig(area_names=["A9"], locations_per_area=2,
                          runs_per_location=2, duration_s=60, max_retries=1,
                          retry_backoff_s=0.0, checkpoint_path=path,
                          **overrides)


def failing_run_fn():
    """Fails schedule key 1 on every attempt and key 2 on its first."""
    calls = {}

    def run_fn(deployment, profile, device, point, location_name, run_index,
               duration_s=300, keep_trace=False):
        key = (profile.name, deployment.area.name, location_name, run_index)
        calls[key] = calls.get(key, 0) + 1
        if key == K1 or (key == K2 and calls[key] == 1):
            raise RuntimeError(f"injected failure {calls[key]}")
        return run_once(deployment, profile, device, point, location_name,
                        run_index, duration_s=duration_s,
                        keep_trace=keep_trace)

    return run_fn


def run_span(location, run_index, **attributes):
    return {"operator": "OP_V", "area": "A9", "location": location,
            "run_index": run_index, **attributes}


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pins") / "campaign.ckpt"


@pytest.fixture(scope="module")
def fresh(checkpoint_path):
    return run_pinned(pin_config(checkpoint_path), run_fn=failing_run_fn())


@pytest.fixture(scope="module")
def resumed(fresh, checkpoint_path):
    """The resume over the fresh run's checkpoint, key 0's trace garbled."""
    identity = CampaignRunner([operator("OP_V")],
                              pin_config(checkpoint_path)).campaign_identity()
    rewrite_checkpoint(checkpoint_path, identity, corrupt={K0})
    return run_pinned(pin_config(checkpoint_path, resume=True))


class TestSequentialFreshRun:
    def test_events(self, fresh):
        campaign = "4e9c6097"
        assert fresh.events == [
            ("campaign.started", "info", campaign, None,
             {"scheduler": "pool", "workers": 1, "seed": 0}),
            ("run.completed", "debug", campaign, K0, {"attempts": 1}),
            ("run.retry", "warning", campaign, K1,
             {"attempt": 1, "backoff_s": 0.0,
              "error": "RuntimeError: injected failure 1"}),
            ("run.quarantined", "warning", campaign, K1,
             {"error": "RuntimeError: injected failure 2", "attempts": 2,
              "timed_out": False}),
            ("run.retry", "warning", campaign, K2,
             {"attempt": 1, "backoff_s": 0.0,
              "error": "RuntimeError: injected failure 1"}),
            ("run.completed", "debug", campaign, K2, {"attempts": 2}),
            ("run.completed", "debug", campaign, K3, {"attempts": 1}),
            ("campaign.finished", "info", campaign, None,
             {"scheduled": 4, "completed": 3, "quarantined": 1}),
        ]

    def test_progress_callbacks(self, fresh):
        assert fresh.progress == [
            ("campaign_started", 4),
            ("run_completed", K0),
            ("run_retried", K1, 1),
            ("run_quarantined", K1),
            ("run_retried", K2, 1),
            ("run_completed", K2),
            ("run_completed", K3),
            ("campaign_finished",),
        ]

    def test_counters(self, fresh):
        assert fresh.counters == {
            "campaign_run_retries_total": {"": 2.0},
            "campaign_runs_completed_total": {"": 3.0},
            "campaign_runs_quarantined_total": {"": 1.0},
            "campaign_runs_retried_total": {"": 2.0},
            "campaign_runs_scheduled_total": {"": 4.0},
            "pipeline_runs_analyzed_total": {"": 3.0},
            "retry_retries_total": {"": 2.0},
        }

    def test_spans(self, fresh):
        executed = [("simulate", "run"), ("analyze", "run"),
                    ("run", "campaign")]
        assert fresh.tree == [*executed, ("run", "campaign"), *executed,
                              *executed, ("campaign", None)]
        assert fresh.run_attributes == [
            run_span("A9-P1", 0, attempts=1, outcome="completed"),
            run_span("A9-P1", 1, attempts=2, outcome="quarantined"),
            run_span("A9-P2", 0, attempts=2, outcome="completed"),
            run_span("A9-P2", 1, attempts=1, outcome="completed"),
        ]
        # The one permitted difference between execution paths: the
        # campaign span may name its (single) worker.
        campaign = dict(fresh.campaign_attributes)
        assert campaign.pop("workers", 1) == 1
        assert campaign == {"seed": 0, "operators": "OP_V", "scheduled": 4}

    def test_result_and_checkpoint(self, fresh):
        result = fresh.result
        assert (result.scheduled, result.completed) == (4, 3)
        assert [(q.key, q.error, q.attempts) for q in result.quarantined] \
            == [(K1, "RuntimeError: injected failure 2", 2)]
        assert [(run.metadata.location, run.metadata.run_seed, run.has_loop)
                for run in result.runs] == [("A9-P1", 2491880826, False),
                                            ("A9-P2", 2247786243, False),
                                            ("A9-P2", 4076687253, False)]
        assert all(run.trace is None for run in result.runs)
        assert fresh.checkpoint_sha256 == \
            "d518e1612774701ee627a7a1b0ff43eaf6151e6a20cb775b8a977d7367b35876"


class TestSequentialResume:
    def test_events(self, resumed):
        campaign = "4e9c6097"
        assert resumed.events == [
            ("campaign.started", "info", campaign, None,
             {"scheduler": "pool", "workers": 1, "seed": 0}),
            ("parse.records_quarantined", "warning", campaign, None,
             {"total_lines": 1, "skipped": 1,
              "errors": {"TraceDecodeError": 1}}),
            ("checkpoint.restore_failed", "warning", campaign, K0, {}),
            ("run.completed", "debug", campaign, K0, {"attempts": 1}),
            ("run.completed", "debug", campaign, K1, {"attempts": 1}),
            ("run.restored", "debug", campaign, K2, {}),
            ("run.restored", "debug", campaign, K3, {}),
            ("campaign.finished", "info", campaign, None,
             {"scheduled": 4, "completed": 4, "quarantined": 0}),
        ]

    def test_progress_callbacks(self, resumed):
        assert resumed.progress == [
            ("campaign_started", 4),
            ("run_completed", K0),
            ("run_completed", K1),
            ("run_restored", K2),
            ("run_restored", K3),
            ("campaign_finished",),
        ]

    def test_counters(self, resumed):
        assert resumed.counters == {
            "campaign_runs_completed_total": {"": 4.0},
            "campaign_runs_restored_total": {"": 2.0},
            "campaign_runs_scheduled_total": {"": 4.0},
            "pipeline_runs_analyzed_total": {"": 4.0},
            "trace_lines_total": {"": 255.0},
            "trace_records_parsed_total": {"": 252.0},
            "trace_records_skipped_total": {"error=TraceDecodeError": 1.0},
        }

    def test_spans(self, resumed):
        executed = [("simulate", "run"), ("analyze", "run"),
                    ("run", "campaign")]
        restored = [("parse", "run"), ("analyze", "run"),
                    ("run", "campaign")]
        assert resumed.tree == [("parse", "run"), ("run", "campaign"),
                                *executed, *executed, *restored, *restored,
                                ("campaign", None)]
        assert resumed.run_attributes == [
            run_span("A9-P1", 0, restored=True, outcome="restore_failed"),
            run_span("A9-P1", 0, attempts=1, outcome="completed"),
            run_span("A9-P1", 1, attempts=1, outcome="completed"),
            run_span("A9-P2", 0, restored=True, outcome="restored"),
            run_span("A9-P2", 1, restored=True, outcome="restored"),
        ]
        campaign = dict(resumed.campaign_attributes)
        assert campaign.pop("workers", 1) == 1
        assert campaign == {"seed": 0, "operators": "OP_V", "scheduled": 4}

    def test_result_and_checkpoint(self, resumed, checkpoint_path):
        result = resumed.result
        assert (result.scheduled, result.completed) == (4, 4)
        assert result.quarantined == []
        assert [(run.metadata.location, run.metadata.run_seed, run.has_loop)
                for run in result.runs] == [("A9-P1", 2491880826, False),
                                            ("A9-P1", 3816826348, False),
                                            ("A9-P2", 2247786243, False),
                                            ("A9-P2", 4076687253, False)]
        assert [(key, entry.status) for key, entry
                in CampaignCheckpoint(checkpoint_path).load().items()] \
            == [(K0, "ok"), (K1, "ok"), (K2, "ok"), (K3, "ok")]
        assert resumed.checkpoint_sha256 == \
            "2f434e9768a0a81a7e40523a8721060aa51226b71b9cf90fb1b47f29e80e7d87"


# ----------------------------------------------------------------------
# Checkpoint bytes of the seeded fixture campaign
# ----------------------------------------------------------------------


FIXTURE_PROFILES = ("OP_T", "OP_A", "OP_V")


def fixture_config(**overrides) -> CampaignConfig:
    return CampaignConfig(
        device_name="OnePlus 12R", seed=0, duration_s=60,
        area_names=["A1", "A2", "A6", "A7", "A9", "A10"],
        locations_per_area=1, a1_locations=1, runs_per_location=1,
        a1_runs_per_location=1, **overrides)


def run_fixture(**overrides):
    obs = make_instrumentation(clock=FakeClock())
    runner = CampaignRunner([operator(name) for name in FIXTURE_PROFILES],
                            fixture_config(**overrides), obs=obs)
    return runner, runner.run(), obs.registry.snapshot()["counters"]


class TestFixtureCheckpointBytes:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_digest(self, tmp_path, workers):
        path = tmp_path / "fixture.ckpt"
        _, result, _ = run_fixture(checkpoint_path=path, workers=workers)
        assert (result.scheduled, result.completed) == (6, 6)
        assert sha256(path) == FIXTURE_CHECKPOINT_SHA256

    def test_pool_resume_over_corrupt_entry_matches_sequential(
            self, tmp_path):
        # A partial checkpoint (last two runs missing) whose second
        # entry is garbage: the resume restores three runs, re-executes
        # the corrupt one in the coordinator and the missing two on the
        # backend, and must append the same bytes either way.
        written = tmp_path / "written.ckpt"
        runner, _, _ = run_fixture(checkpoint_path=written)
        keys = [scheduled.key for scheduled in runner.schedule()]
        rewrite_checkpoint(written, runner.campaign_identity(),
                           corrupt={keys[1]}, drop=set(keys[4:]))
        doctored = written.read_bytes()
        outcomes = {}
        for workers in (1, 2):
            path = tmp_path / f"resume-{workers}.ckpt"
            path.write_bytes(doctored)
            _, result, counters = run_fixture(
                checkpoint_path=path, resume=True, workers=workers)
            outcomes[workers] = (result, counters, path.read_bytes())
        (seq, seq_counters, seq_bytes), (par, par_counters, par_bytes) = \
            outcomes[1], outcomes[2]
        assert (seq.scheduled, seq.completed) == (6, 6)
        assert seq_counters["campaign_runs_restored_total"] == {"": 3.0}
        assert [run.metadata for run in par.runs] \
            == [run.metadata for run in seq.runs]
        assert [run.analysis for run in par.runs] \
            == [run.analysis for run in seq.runs]
        assert [run.point for run in par.runs] \
            == [run.point for run in seq.runs]
        assert par.quarantined == seq.quarantined == []
        assert par_counters == seq_counters
        assert par_bytes == seq_bytes
