"""Chaos harness acceptance tests.

The acceptance criterion for the resilience subsystem: a full
multi-operator campaign with injected run failures and ~5% corrupted
trace records completes end-to-end, quarantines the failures, resumes
from a checkpoint after a simulated interrupt, and produces a report
whose per-run counts reconcile (completed + quarantined == scheduled).
Identical seeds must yield identical quarantine lists and ParseReport
tallies.
"""

import pytest

from repro.analysis.report import campaign_report
from repro.campaign import CampaignConfig, CampaignRunner, operator
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.resilience.framing import frame_object
from tests.chaos.harness import (
    ChaosConfig,
    ChaosHarness,
    SimulatedInterrupt,
    run_chaos_campaign,
)

#: Seed 1 deterministically marks 1 of the 8 scheduled runs as a
#: permanent failure and 3 as transient (first-attempt-only) failures.
CHAOS_SEED = 1

PROFILES = ["OP_T", "OP_V"]


def campaign_config(**overrides) -> CampaignConfig:
    defaults = dict(area_names=["A2", "A9"], locations_per_area=2,
                    runs_per_location=2, duration_s=60, max_retries=1,
                    retry_backoff_s=0.0)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def chaos_config(**overrides) -> ChaosConfig:
    defaults = dict(seed=CHAOS_SEED, fault_rate=0.05,
                    run_failure_rate=0.1, transient_failure_rate=0.1)
    defaults.update(overrides)
    return ChaosConfig(**defaults)


@pytest.fixture(scope="module")
def chaos_report():
    profiles = [operator(name) for name in PROFILES]
    return run_chaos_campaign(profiles, campaign_config(), chaos_config())


class TestChaosCampaign:
    def test_pipeline_completes_and_reconciles(self, chaos_report):
        result = chaos_report.result
        assert result.scheduled == 8
        assert result.completed + len(result.quarantined) == result.scheduled
        assert chaos_report.reconciles()

    def test_permanent_failures_quarantined_transients_absorbed(
            self, chaos_report):
        # Seed 1: exactly one permanent failure survives one retry;
        # the three transient failures are absorbed by the retry loop.
        assert len(chaos_report.result.quarantined) == 1
        assert chaos_report.result.quarantined[0].attempts == 2
        assert "ChaosRunError" in chaos_report.result.quarantined[0].error

    def test_corruption_was_real_and_absorbed(self, chaos_report):
        injected = chaos_report.total_injected()
        assert sum(injected.values()) > 0
        tallies = chaos_report.total_parse_tallies()
        assert tallies["parsed_records"] > 0
        # Every analysed run produced a parse report.
        assert len(chaos_report.parse_reports) == chaos_report.result.completed

    def test_report_renders_quarantine(self, chaos_report):
        report = campaign_report(chaos_report.result)
        assert "8 scheduled, 7 completed, 1 quarantined" in report
        assert "ChaosRunError" in report

    def test_identical_seeds_identical_outcomes(self, chaos_report):
        profiles = [operator(name) for name in PROFILES]
        rerun = run_chaos_campaign(profiles, campaign_config(),
                                   chaos_config())
        assert rerun.quarantine_keys() == chaos_report.quarantine_keys()
        assert rerun.total_parse_tallies() \
            == chaos_report.total_parse_tallies()
        assert rerun.total_injected() == chaos_report.total_injected()
        assert rerun.result.completed == chaos_report.result.completed

    def test_different_seed_changes_corruption(self, chaos_report):
        profiles = [operator(name) for name in PROFILES]
        other = run_chaos_campaign(
            profiles, campaign_config(),
            chaos_config(seed=CHAOS_SEED + 7, fault_rate=0.2))
        assert other.total_parse_tallies() \
            != chaos_report.total_parse_tallies()


class TestChaosInterruptResume:
    def test_interrupt_then_resume_reconciles(self, tmp_path):
        profiles = [operator(name) for name in PROFILES]
        path = tmp_path / "chaos.ckpt"

        interrupted = ChaosHarness(
            profiles, campaign_config(checkpoint_path=path),
            chaos_config(interrupt_after=3))
        with pytest.raises(SimulatedInterrupt):
            interrupted.run()
        assert interrupted._completed == 3

        resumed = ChaosHarness(
            profiles,
            campaign_config(checkpoint_path=path, resume=True),
            chaos_config())
        report = resumed.run()
        assert report.result.scheduled == 8
        assert report.result.completed + len(report.result.quarantined) == 8
        assert report.reconciles()
        # Checkpointed runs were restored, not re-simulated: the resumed
        # harness only executed the remainder of the campaign.
        assert len(resumed.parse_reports) < report.result.completed

    def test_resume_quarantine_matches_uninterrupted_run(self, tmp_path,
                                                         chaos_report):
        profiles = [operator(name) for name in PROFILES]
        path = tmp_path / "chaos2.ckpt"
        interrupted = ChaosHarness(
            profiles, campaign_config(checkpoint_path=path),
            chaos_config(interrupt_after=4))
        with pytest.raises(SimulatedInterrupt):
            interrupted.run()
        resumed = ChaosHarness(
            profiles,
            campaign_config(checkpoint_path=path, resume=True),
            chaos_config())
        report = resumed.run()
        assert report.quarantine_keys() == chaos_report.quarantine_keys()
        assert report.result.completed == chaos_report.result.completed


class TestTracelessCheckpoint:
    def test_traceless_resume_reexecutes_deliberately(self, tmp_path,
                                                      chaos_report):
        # An ok entry whose trace is null (older writers recorded such
        # trace-less successes) still loads, and resume re-executes its
        # run — there is nothing to restore — while counters reconcile.
        profiles = [operator(name) for name in PROFILES]
        path = tmp_path / "traceless.ckpt"
        runner = CampaignRunner(profiles,
                                campaign_config(checkpoint_path=path))
        keys = [scheduled.key for scheduled in runner.schedule()][:3]
        path.write_bytes(b"".join(
            [frame_object({"version": 1,
                           "identity": runner.campaign_identity()})]
            + [frame_object({"key": list(key), "status": "ok",
                             "trace": None}) for key in keys]))
        entries = CampaignCheckpoint(path).load()
        assert [(key, entries[key].succeeded, entries[key].trace_jsonl)
                for key in keys] == [(key, True, None) for key in keys]

        resumed = ChaosHarness(
            profiles, campaign_config(checkpoint_path=path, resume=True),
            chaos_config())
        report = resumed.run()
        assert report.reconciles()
        assert report.result.scheduled == 8
        assert len(resumed.parse_reports) == report.result.completed
        assert report.quarantine_keys() == chaos_report.quarantine_keys()
        # The re-executed successes are checkpointed with their traces.
        reloaded = CampaignCheckpoint(path).load()
        assert all(entry.trace_jsonl for entry in reloaded.values()
                   if entry.succeeded)

    def test_load_streams_past_truncated_final_line(self, tmp_path):
        profiles = [operator(name) for name in PROFILES]
        path = tmp_path / "truncated.ckpt"
        report = ChaosHarness(
            profiles, campaign_config(checkpoint_path=path),
            chaos_config()).run()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": ["OP_T", "A2", "A2-')  # killed mid-append
        entries = CampaignCheckpoint(path).load()
        assert len(entries) == report.result.scheduled
