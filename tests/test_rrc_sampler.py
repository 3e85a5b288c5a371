"""Tests for the per-run radio sampler used by the session simulators."""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from repro.campaign import build_deployment, device, operator
from repro.campaign.runner import run_once
from repro.cells.cell import CellIdentity, Rat
from repro.radio.environment import RadioEnvironment
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel
from repro.rrc.session import RadioSampler, RunConfig, simulate_run
from tests.conftest import nr_cell


@pytest.fixture
def environment():
    model = PropagationModel(seed=3, path_loss_exponent=3.5,
                             shadowing_sigma_db=6.0, fading_sigma_db=2.0,
                             noise_floor_dbm=-116.0)
    cells = [
        nr_cell(1, 521310, 100.0, 100.0),
        nr_cell(2, 501390, 100.0, 100.0),
        # A hopeless cell far below the relevance cutoff.
        nr_cell(3, 387410, 100.0, 100.0, power=-80.0),
    ]
    return RadioEnvironment(cells, model)


@pytest.fixture
def sampler(environment):
    return RadioSampler(environment, Point(200.0, 200.0),
                        RunConfig(duration_s=60, run_seed=5))


class TestStationarySampling:
    def test_observe_drops_irrelevant_cells(self, sampler):
        observations = sampler.observe(0)
        assert CellIdentity(3, 387410, Rat.NR) not in observations
        assert len(observations) == 2

    def test_observe_identity_covers_weak_cells(self, sampler):
        weak = sampler.observe_identity(CellIdentity(3, 387410, Rat.NR), 0)
        assert not weak.measurable
        assert weak.rsrp_dbm < -150.0

    def test_observation_varies_over_ticks(self, sampler):
        identity = CellIdentity(1, 521310, Rat.NR)
        values = {round(sampler.observe_identity(identity, tick).rsrp_dbm, 3)
                  for tick in range(20)}
        assert len(values) > 5  # fading moves the samples around

    def test_deterministic_per_run_seed(self, environment):
        a = RadioSampler(environment, Point(200.0, 200.0),
                         RunConfig(run_seed=5))
        b = RadioSampler(environment, Point(200.0, 200.0),
                         RunConfig(run_seed=5))
        identity = CellIdentity(1, 521310, Rat.NR)
        assert a.observe_identity(identity, 7).rsrp_dbm == \
            b.observe_identity(identity, 7).rsrp_dbm
        assert a.observe(3) == b.observe(3)
        other = RadioSampler(environment, Point(200.0, 200.0),
                             RunConfig(run_seed=6))
        assert other.observe(3) != a.observe(3)

    def test_rsrq_reflects_interference_margin(self, propagation):
        clean = nr_cell(1, x=0.0, y=0.0)
        loaded = nr_cell(2, channel=501390, x=0.0, y=0.0, margin=4.0)
        sampler = RadioSampler(RadioEnvironment([clean, loaded], propagation),
                               Point(150.0, 0.0),
                               RunConfig(duration_s=10, run_seed=1))
        observations = {identity.pci: obs
                        for identity, obs in sampler.observe(0).items()}
        # Each cell's RSRQ is the propagation model's map of its own
        # RSRP, shifted down by its channel's interference margin.
        assert observations[1].rsrq_db == \
            propagation.rsrq_db(observations[1].rsrp_dbm)
        assert observations[2].rsrq_db == \
            propagation.rsrq_db(observations[2].rsrp_dbm, 4.0)
        assert observations[2].rsrq_db == pytest.approx(
            propagation.rsrq_db(observations[2].rsrp_dbm) - 4.0)

    def test_observations_are_python_scalars(self, sampler):
        for observation in sampler.observe(0).values():
            assert type(observation.rsrp_dbm) is float
            assert type(observation.rsrq_db) is float
            assert type(observation.measurable) is bool

    def test_ticks_outside_the_run_raise(self, sampler):
        identity = CellIdentity(1, 521310, Rat.NR)
        with pytest.raises(ValueError):
            sampler.observe_identity(identity, -1)
        with pytest.raises(ValueError):
            sampler.observe(-1)
        with pytest.raises(ValueError):
            sampler.observe(60)

    def test_observation_str(self, sampler):
        observation = sampler.observe_identity(CellIdentity(1, 521310, Rat.NR), 0)
        assert "@" in str(observation)

    def test_fresh_rsrp_differs_from_reported(self, sampler):
        identity = CellIdentity(1, 521310, Rat.NR)
        reported = sampler.observe_identity(identity, 4).rsrp_dbm
        fresh = sampler.fresh_rsrp(identity, 4)
        assert fresh != reported
        assert fresh == sampler.fresh_rsrp(identity, 4)  # but deterministic

    def test_fresh_labels_independent(self, sampler):
        identity = CellIdentity(1, 521310, Rat.NR)
        assert sampler.fresh_rsrp(identity, 4, "exec") != \
            sampler.fresh_rsrp(identity, 4, "ho")


class TestMovingSampling:
    def test_point_provider_moves_the_mean(self, environment):
        def provider(tick):
            return Point(150.0 + tick * 50.0, 150.0)

        config = RunConfig(run_seed=5, point_provider=provider)
        sampler = RadioSampler(environment, Point(150.0, 150.0), config)
        identity = CellIdentity(1, 521310, Rat.NR)
        near = sampler.observe_identity(identity, 0).rsrp_dbm
        far = sampler.observe_identity(identity, 20).rsrp_dbm
        assert near > far + 10.0

    def test_moving_mode_observes_all_cells(self, environment):
        config = RunConfig(run_seed=5,
                           point_provider=lambda tick: Point(200.0, 200.0))
        sampler = RadioSampler(environment, Point(200.0, 200.0), config)
        assert len(sampler.observe(0)) == 3  # no stationary cutoff


class TestRunCost:
    """What one run builds and leaves behind, counted rather than timed."""

    def test_one_run_builds_at_most_two_generators(self, monkeypatch):
        profile = operator("OP_T")
        deployment = build_deployment(profile, "A1")  # nothing cached yet
        built = []

        class CountingRandomState(np.random.RandomState):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "RandomState", CountingRandomState)
        trace = simulate_run(deployment.environment, profile.policy,
                             device("OnePlus 12R"), Point(400.0, 400.0),
                             RunConfig(duration_s=300, run_seed=3))
        assert len(trace.records) > 300
        # The session's generator and, the first time in this thread,
        # the scratch generator every one-shot seeded draw reuses.
        assert len(built) <= 2

    def test_runs_leave_no_state_on_the_deployment(self):
        profile = operator("OP_V")
        deployment = build_deployment(profile, "A9")
        phone = device("OnePlus 12R")
        point = Point(400.0, 400.0)
        run_once(deployment, profile, phone, point, "L", 0, duration_s=60)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for run_index in range(1, 21):
                run_once(deployment, profile, phone, point, "L", run_index,
                         duration_s=60)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # One run's fading state is at least a float per cell per tick.
        one_run = len(deployment.environment.cells) * 60 * sys.getsizeof(0.0)
        assert grown < one_run
