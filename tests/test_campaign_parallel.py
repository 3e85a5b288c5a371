"""Deterministic parallel campaign execution.

The equivalence contract: for the same seed, ``workers=N`` must be
bit-identical to ``workers=1`` — same ``CampaignResult``, same exported
counters, same checkpoint bytes — because runs are seeded per key and
the parent merges worker payloads in schedule order.  Also the
regression tests for the seed-derivation collision (`stable_seed`):
a ``|`` inside a key part must not alias a shifted key split.
"""

import io

import pytest

from repro.campaign import CampaignConfig, CampaignRunner, operator
from repro.campaign import runner as runner_module
from repro.campaign.runner import _run_seed, run_once
from repro.campaign.scheduler import PoolScheduler
from repro.core.seeding import encode_key_parts, stable_seed
from repro.obs import (
    StderrProgressReporter,
    make_instrumentation,
)
from repro.resilience.retry import RetryPolicy
from tests.test_campaign_pins import progress_tallies
from tests.test_obs_metrics import FakeClock


def small_config(**overrides) -> CampaignConfig:
    defaults = dict(area_names=["A9"], locations_per_area=2,
                    runs_per_location=2, duration_s=60)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def run_campaign(config: CampaignConfig, profiles=None, **runner_kwargs):
    obs = make_instrumentation(clock=FakeClock())
    result = CampaignRunner(profiles or [operator("OP_V")], config,
                            obs=obs, **runner_kwargs).run()
    return obs, result


def run_pair(**config_overrides):
    """The same campaign executed sequentially and with a pool."""
    sequential = run_campaign(small_config(**config_overrides))
    parallel = run_campaign(small_config(workers=3, **config_overrides))
    return sequential, parallel


class TestSequentialParallelEquivalence:
    def test_results_bit_identical(self):
        (_, seq), (_, par) = run_pair()
        assert par.scheduled == seq.scheduled == 4
        assert par.completed == seq.completed
        assert [run.metadata for run in par.runs] \
            == [run.metadata for run in seq.runs]
        assert [run.analysis for run in par.runs] \
            == [run.analysis for run in seq.runs]
        assert [run.point for run in par.runs] \
            == [run.point for run in seq.runs]
        assert par.quarantined == seq.quarantined

    def test_counters_bit_identical(self):
        (seq_obs, _), (par_obs, _) = run_pair()
        assert par_obs.registry.snapshot()["counters"] \
            == seq_obs.registry.snapshot()["counters"]

    def test_multi_operator_order_preserved(self):
        config = dict(area_names=["A2", "A9"])
        profiles = [operator("OP_T"), operator("OP_V")]
        _, seq = run_campaign(small_config(**config), profiles=profiles)
        _, par = run_campaign(small_config(workers=2, **config),
                              profiles=profiles)
        assert [run.metadata.operator for run in par.runs] \
            == [run.metadata.operator for run in seq.runs]
        assert [run.metadata.location for run in par.runs] \
            == [run.metadata.location for run in seq.runs]

    def test_checkpoint_bytes_identical(self, tmp_path):
        seq_path = tmp_path / "seq.ckpt"
        par_path = tmp_path / "par.ckpt"
        run_campaign(small_config(checkpoint_path=seq_path))
        run_campaign(small_config(checkpoint_path=par_path, workers=2))
        assert par_path.read_bytes() == seq_path.read_bytes()

    def test_parallel_resume_restores_from_checkpoint(self, tmp_path):
        path = tmp_path / "c.ckpt"
        run_campaign(small_config(checkpoint_path=path, workers=2))
        obs, resumed = run_campaign(
            small_config(checkpoint_path=path, resume=True, workers=2))
        assert resumed.completed == 4
        assert resumed.reconciles()
        assert obs.registry.counter(
            "campaign_runs_restored_total").total() == 4


class TestParallelTelemetry:
    def test_worker_spans_reparented_under_campaign(self):
        obs, result = run_campaign(small_config(workers=2))
        tracer = obs.tracer
        roots = tracer.roots()
        assert [root.name for root in roots] == ["campaign"]
        assert roots[0].attributes["workers"] == 2
        runs = tracer.children_of(roots[0])
        assert [span.name for span in runs] == ["run"] * result.scheduled
        for run_span in runs:
            assert run_span.attributes["outcome"] == "completed"
            assert "worker_pid" in run_span.attributes
            children = {child.name
                        for child in tracer.children_of(run_span)}
            assert children == {"simulate", "analyze"}
        assert len({span.span_id for span in tracer.spans()}) \
            == len(tracer.spans())

    def test_progress_tallied_once_in_parent(self):
        clock = FakeClock()
        stream = io.StringIO()
        progress = StderrProgressReporter(stream=stream, clock=clock)
        obs = make_instrumentation(clock=clock)
        obs.events.add_sink(progress)
        result = CampaignRunner([operator("OP_V")],
                                small_config(workers=2), obs=obs).run()
        snapshot = progress.snapshot()
        assert snapshot["total"] == result.scheduled == 4
        assert snapshot["completed"] == result.completed
        assert snapshot["done"] == result.scheduled
        # Recorded from the progress callbacks the sink replaced.
        assert progress_tallies(progress) == {
            "total": 4, "done": 4, "completed": 4, "quarantined": 0,
            "timed_out": 0, "restored": 0, "retries": 0}
        assert stream.getvalue().endswith("\n")


def refuse_pool(*args, **kwargs):
    raise AssertionError("sequential execution must not build a pool")


@pytest.fixture
def no_pool(monkeypatch):
    """Building a process pool fails the test."""
    monkeypatch.setattr(runner_module, "PoolScheduler", refuse_pool)


@pytest.fixture
def in_process_runs(monkeypatch):
    """Every run_once call made in this process, as (location, index).

    The runner resolves ``run_once`` through its module global at call
    time, so the spy sees exactly the runs executed in-process.
    """
    calls = []

    def spy(deployment, profile, device, point, location_name, run_index,
            duration_s=300, keep_trace=False):
        calls.append((location_name, run_index))
        return run_once(deployment, profile, device, point, location_name,
                        run_index, duration_s=duration_s,
                        keep_trace=keep_trace)

    monkeypatch.setattr(runner_module, "run_once", spy)
    return calls


def campaign_workers(obs) -> int:
    [root] = obs.tracer.roots()
    return root.attributes["workers"]


class TestInProcessFallback:
    def test_workers_one_never_builds_a_pool(self, no_pool,
                                             in_process_runs):
        obs, result = run_campaign(small_config(workers=1))
        assert len(in_process_runs) == result.scheduled == 4
        assert campaign_workers(obs) == 1

    def test_missing_multiprocessing_falls_back_to_in_process(
            self, monkeypatch, no_pool, in_process_runs):
        monkeypatch.setattr(runner_module, "_mp_context", lambda: None)
        obs, result = run_campaign(small_config(workers=4))
        assert len(in_process_runs) == result.scheduled == 4
        assert campaign_workers(obs) == 1

    def test_pool_that_fails_to_start_falls_back_to_in_process(
            self, monkeypatch, in_process_runs):
        monkeypatch.setattr(PoolScheduler, "start", lambda self: False)
        obs, result = run_campaign(small_config(workers=4))
        assert len(in_process_runs) == result.scheduled == 4
        assert campaign_workers(obs) == 1


class TestSeedCollisionRegression:
    """`stable_seed` must be injective on key-part boundaries."""

    def test_delimiter_in_part_does_not_shift_split(self):
        assert stable_seed("A1-P1|0") != stable_seed("A1-P1", 0)
        assert stable_seed("a|b", "c") != stable_seed("a", "b|c")
        assert stable_seed("a", "", "b") != stable_seed("a|", "b")

    def test_escape_character_round_trips(self):
        assert stable_seed("a\\", "b") != stable_seed("a", "\\b")
        assert stable_seed("a\\|b") != stable_seed("a", "b")
        assert encode_key_parts("a\\", "b") != encode_key_parts("a", "\\b")

    def test_plain_names_keep_legacy_seeds(self):
        # Escaping only rewrites parts containing | or \, so every seed
        # derived from ordinary operator/area/location names (and with
        # it every calibrated simulation output) is unchanged.
        import zlib
        assert stable_seed("OP_T", "A1", "A1-P1", "OnePlus 12R", 3) \
            == zlib.crc32(b"OP_T|A1|A1-P1|OnePlus 12R|3")

    def test_runner_and_retry_share_the_helper(self):
        from repro.resilience import retry
        assert _run_seed is stable_seed
        assert retry._mix is stable_seed

    def test_retry_backoff_distinguishes_adversarial_keys(self):
        policy = RetryPolicy(max_retries=3, backoff_base_s=0.5, seed=7)
        assert policy.schedule(("A1-P1|0",)) != policy.schedule(("A1-P1", 0))


class TestAdversarialLocationNames:
    def test_pipe_in_area_name_gets_distinct_run_seeds(self):
        # Two run identities that collide under the legacy "|".join
        # encoding must now simulate under different seeds.
        seed_a = _run_seed("OP", "A|1", "L", "D", 0)
        seed_b = _run_seed("OP", "A", "1|L", "D", 0)
        assert seed_a != seed_b
