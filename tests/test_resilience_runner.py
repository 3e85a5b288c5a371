"""Fault-tolerant campaign execution: retry, quarantine, checkpoint, resume.

Failing runs are stand-ins patched over ``repro.campaign.runner.run_once``,
the module global every run resolves at call time.
"""

import pytest

from repro.campaign import CampaignConfig, CampaignRunner, operator
from repro.campaign import runner as runner_module
from repro.campaign.runner import run_once
from repro.resilience.checkpoint import CampaignCheckpoint


def small_config(**overrides) -> CampaignConfig:
    defaults = dict(area_names=["A9"], locations_per_area=2,
                    runs_per_location=2, duration_s=60)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def scheduled_keys(config: CampaignConfig) -> list:
    return [s.key for s in CampaignRunner([operator("OP_V")], config).schedule()]


def patch_failing_runs(monkeypatch, fail_keys=(), transient_keys=(),
                       interrupt_keys=()):
    """Patch run_once with a wrapper that fails on chosen run keys;
    returns the per-key call counts.

    ``fail_keys`` fail on every attempt, ``transient_keys`` only on the
    first, ``interrupt_keys`` raise KeyboardInterrupt (once).
    """
    calls = {}
    interrupted = set()

    def fn(deployment, profile, device, point, location_name, run_index,
           duration_s=300, keep_trace=False):
        key = (profile.name, deployment.area.name, location_name, run_index)
        calls[key] = calls.get(key, 0) + 1
        if key in interrupt_keys and key not in interrupted:
            interrupted.add(key)
            raise KeyboardInterrupt
        if key in fail_keys:
            raise RuntimeError(f"permanent failure at {key}")
        if key in transient_keys and calls[key] == 1:
            raise RuntimeError(f"transient failure at {key}")
        return run_once(deployment, profile, device, point, location_name,
                        run_index, duration_s=duration_s,
                        keep_trace=keep_trace)

    monkeypatch.setattr(runner_module, "run_once", fn)
    return calls


class TestQuarantine:
    def test_one_failed_run_does_not_abort_campaign(self, monkeypatch):
        config = small_config()
        keys = scheduled_keys(config)
        patch_failing_runs(monkeypatch, fail_keys={keys[0]})
        result = CampaignRunner([operator("OP_V")], config).run()
        assert result.scheduled == 4
        assert result.completed == 3
        assert [q.key for q in result.quarantined] == [keys[0]]
        assert result.reconciles()
        assert "permanent failure" in result.quarantined[0].error

    def test_report_shows_quarantine(self, monkeypatch):
        from repro.analysis.report import campaign_report

        config = small_config()
        keys = scheduled_keys(config)
        patch_failing_runs(monkeypatch, fail_keys={keys[-1]})
        result = CampaignRunner([operator("OP_V")], config).run()
        report = campaign_report(result)
        assert "4 scheduled, 3 completed, 1 quarantined" in report
        assert "quarantined:" in report

    def test_quarantine_records_attempt_count(self, monkeypatch):
        config = small_config(max_retries=2, retry_backoff_s=0.0)
        keys = scheduled_keys(config)
        calls = patch_failing_runs(monkeypatch, fail_keys={keys[1]})
        result = CampaignRunner([operator("OP_V")], config).run()
        assert result.quarantined[0].attempts == 3
        assert calls[keys[1]] == 3


class TestRetry:
    def test_transient_failure_recovers(self, monkeypatch):
        config = small_config(max_retries=1, retry_backoff_s=0.0)
        keys = scheduled_keys(config)
        calls = patch_failing_runs(monkeypatch,
                                   transient_keys={keys[0], keys[2]})
        result = CampaignRunner([operator("OP_V")], config).run()
        assert result.completed == 4
        assert not result.quarantined
        assert calls[keys[0]] == 2 and calls[keys[2]] == 2

    def test_no_retries_means_transients_quarantine(self, monkeypatch):
        config = small_config(max_retries=0)
        keys = scheduled_keys(config)
        patch_failing_runs(monkeypatch, transient_keys={keys[0]})
        result = CampaignRunner([operator("OP_V")], config).run()
        assert [q.key for q in result.quarantined] == [keys[0]]


class TestCheckpointResume:
    def test_resume_restores_without_resimulating(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "campaign.ckpt"
        config = small_config(checkpoint_path=path)
        baseline = CampaignRunner([operator("OP_V")], config).run()
        assert baseline.completed == 4

        # Resume with a run_once that would fail loudly if ever invoked:
        # every run must be restored from the checkpoint instead.
        def explode(*args, **kwargs):
            raise AssertionError("resume must not re-simulate completed runs")

        monkeypatch.setattr(runner_module, "run_once", explode)
        resumed = CampaignRunner([operator("OP_V")],
                                 small_config(checkpoint_path=path,
                                              resume=True)).run()
        assert resumed.completed == 4
        assert resumed.reconciles()
        assert resumed.loop_ratio() == baseline.loop_ratio()
        assert [r.metadata.location for r in resumed.runs] \
            == [r.metadata.location for r in baseline.runs]

    def test_interrupt_then_resume_completes(self, tmp_path, monkeypatch):
        path = tmp_path / "campaign.ckpt"
        config = small_config(checkpoint_path=path)
        keys = scheduled_keys(config)
        patch_failing_runs(monkeypatch, interrupt_keys={keys[2]})
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner([operator("OP_V")], config).run()
        # The first two runs made it into the checkpoint before the
        # interrupt; the interrupted run did not.
        assert len(CampaignCheckpoint(path).load()) == 2

        resume_calls = patch_failing_runs(monkeypatch)
        resumed = CampaignRunner([operator("OP_V")],
                                 small_config(checkpoint_path=path,
                                              resume=True)).run()
        assert resumed.scheduled == 4
        assert resumed.completed == 4
        assert resumed.reconciles()
        # Only the two not-yet-checkpointed runs were re-executed.
        assert set(resume_calls) == set(keys[2:])

    def test_failed_runs_are_reattempted_on_resume(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "campaign.ckpt"
        config = small_config(checkpoint_path=path)
        keys = scheduled_keys(config)
        patch_failing_runs(monkeypatch, fail_keys={keys[1]})
        first = CampaignRunner([operator("OP_V")], config).run()
        assert [q.key for q in first.quarantined] == [keys[1]]

        healed_calls = patch_failing_runs(monkeypatch)
        resumed = CampaignRunner([operator("OP_V")],
                                 small_config(checkpoint_path=path,
                                              resume=True)).run()
        assert resumed.completed == 4
        assert not resumed.quarantined
        assert set(healed_calls) == {keys[1]}

    def test_fresh_run_discards_stale_checkpoint(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        config = small_config(checkpoint_path=path)
        CampaignRunner([operator("OP_V")], config).run()
        stale_key = ("OP_X", "Z9", "Z9-P1", 0)
        CampaignCheckpoint(path).record_success(stale_key, "bogus")
        assert len(CampaignCheckpoint(path).load()) == 5

        CampaignRunner([operator("OP_V")], config).run()  # resume=False
        fresh_entries = CampaignCheckpoint(path).load()
        assert len(fresh_entries) == 4  # rewritten, not appended
        assert stale_key not in fresh_entries

    def test_checkpoint_does_not_leak_traces_into_result(self, tmp_path):
        config = small_config(checkpoint_path=tmp_path / "c.ckpt")
        result = CampaignRunner([operator("OP_V")], config).run()
        assert all(run.trace is None for run in result.runs)
