"""Tests for path loss, shadowing, fading and the RSRQ map."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cells.cell import CellIdentity, DeployedCell, Rat
from repro.radio.geometry import Point
from repro.radio.propagation import (
    PropagationModel,
    ShadowingField,
    free_space_path_loss_db,
    log_distance_path_loss_db,
)
from tests.conftest import nr_cell


class TestPathLoss:
    def test_free_space_reference_value(self):
        # 1 km at 1937 MHz: 32.45 + 20log10(1937) = 98.2 dB
        assert free_space_path_loss_db(1000.0, 1937.0) == pytest.approx(98.2, abs=0.1)

    def test_free_space_clamps_below_one_metre(self):
        assert free_space_path_loss_db(0.0, 1937.0) == \
            free_space_path_loss_db(1.0, 1937.0)

    @given(st.floats(min_value=10.0, max_value=10_000.0),
           st.floats(min_value=600.0, max_value=4000.0))
    def test_log_distance_exceeds_free_space_beyond_reference(self, d, f):
        assert log_distance_path_loss_db(d, f, exponent=3.5) >= \
            free_space_path_loss_db(d, f) - 1e-6

    @given(st.floats(min_value=11.0, max_value=10_000.0))
    def test_monotone_in_distance(self, d):
        f = 1937.0
        assert log_distance_path_loss_db(d, f) > log_distance_path_loss_db(d - 1.0, f)

    @given(st.floats(min_value=700.0, max_value=3900.0))
    def test_monotone_in_frequency(self, f):
        assert log_distance_path_loss_db(500.0, f + 100.0) > \
            log_distance_path_loss_db(500.0, f)

    def test_clamped_below_reference_distance(self):
        assert log_distance_path_loss_db(1.0, 1937.0) == \
            log_distance_path_loss_db(10.0, 1937.0)


class TestShadowing:
    def test_deterministic(self):
        a = ShadowingField(1, "cell-a", sigma_db=6.0)
        b = ShadowingField(1, "cell-a", sigma_db=6.0)
        point = Point(123.0, 456.0)
        assert a.value_db(point) == b.value_db(point)

    def test_different_cells_differ(self):
        point = Point(123.0, 456.0)
        a = ShadowingField(1, "cell-a").value_db(point)
        b = ShadowingField(1, "cell-b").value_db(point)
        assert a != b

    def test_spatially_continuous(self):
        field = ShadowingField(1, "cell-a", sigma_db=8.0,
                               correlation_distance_m=75.0)
        base = field.value_db(Point(100.0, 100.0))
        nearby = field.value_db(Point(101.0, 100.0))
        assert abs(base - nearby) < 1.0

    def test_distant_points_decorrelated(self):
        field = ShadowingField(1, "cell-a", sigma_db=8.0)
        values = [field.value_db(Point(i * 500.0, 0.0)) for i in range(30)]
        spread = max(values) - min(values)
        assert spread > 8.0  # several sigma of variety across the area

    def test_zero_sigma_is_zero_everywhere(self):
        field = ShadowingField(1, "cell-a", sigma_db=0.0)
        assert field.value_db(Point(37.0, 91.0)) == 0.0

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            ShadowingField(1, "x", sigma_db=-1.0)
        with pytest.raises(ValueError):
            ShadowingField(1, "x", correlation_distance_m=0.0)


class TestFading:
    def test_fading_deterministic_per_run(self):
        model = PropagationModel(seed=1)
        cell = nr_cell(1)
        assert model.fading_db(cell, run_seed=7, tick=5) == \
            model.fading_db(cell, run_seed=7, tick=5)

    def test_fading_varies_across_runs(self):
        model = PropagationModel(seed=1)
        cell = nr_cell(1)
        assert model.fading_db(cell, 7, 5) != model.fading_db(cell, 8, 5)

    def test_fading_bounded_in_practice(self):
        model = PropagationModel(seed=1, fading_sigma_db=2.0)
        cell = nr_cell(1)
        values = [model.fading_db(cell, 3, tick) for tick in range(300)]
        assert max(abs(v) for v in values) < 10.0

    def test_fading_autocorrelated(self):
        model = PropagationModel(seed=1, fading_sigma_db=2.0)
        cell = nr_cell(1)
        jumps = [abs(model.fading_db(cell, 3, t + 1) - model.fading_db(cell, 3, t))
                 for t in range(100)]
        # AR(1) with rho 0.85: consecutive jumps are much smaller than 2 sigma.
        assert sum(jumps) / len(jumps) < 2.0

    def test_negative_tick_raises(self):
        model = PropagationModel(seed=1)
        with pytest.raises(ValueError):
            model.fading_db(nr_cell(1), 3, -1)

    def test_fresh_fading_independent_of_reported(self):
        model = PropagationModel(seed=1)
        cell = nr_cell(1)
        assert model.fresh_fading_db(cell, 3, 5) != model.fading_db(cell, 3, 5)

    def test_fresh_fading_deterministic(self):
        model = PropagationModel(seed=1)
        cell = nr_cell(1)
        assert model.fresh_fading_db(cell, 3, 5, "exec") == \
            model.fresh_fading_db(cell, 3, 5, "exec")
        assert model.fresh_fading_db(cell, 3, 5, "exec") != \
            model.fresh_fading_db(cell, 3, 5, "ho")


class TestRsrp:
    def test_rsrp_decreases_with_distance(self):
        model = PropagationModel(seed=1, shadowing_sigma_db=0.0)
        cell = nr_cell(1, x=0.0, y=0.0)
        near = model.mean_rsrp_dbm(cell, Point(100.0, 0.0))
        far = model.mean_rsrp_dbm(cell, Point(1000.0, 0.0))
        assert near > far

    def test_rsrp_includes_fading(self):
        model = PropagationModel(seed=1)
        cell = nr_cell(1)
        point = Point(200.0, 0.0)
        mean = model.mean_rsrp_dbm(cell, point)
        instantaneous = model.rsrp_dbm(cell, point, tick=4, run_seed=9)
        assert instantaneous == pytest.approx(mean + model.fading_db(cell, 9, 4))

    def test_sector_antenna_attenuates_off_axis(self):
        model = PropagationModel(seed=1, shadowing_sigma_db=0.0)
        omni = nr_cell(1, x=0.0, y=0.0)
        sector = DeployedCell(identity=CellIdentity(2, 521310, Rat.NR),
                              site_xy_m=(0.0, 0.0), tx_power_dbm=21.0,
                              azimuth_deg=0.0, beamwidth_deg=100.0)
        boresight = model.mean_rsrp_dbm(sector, Point(0.0, 300.0))
        behind = model.mean_rsrp_dbm(sector, Point(0.0, -300.0))
        assert boresight - behind == pytest.approx(18.0, abs=0.5)
        assert model.mean_rsrp_dbm(omni, Point(0.0, 300.0)) == \
            pytest.approx(boresight, abs=0.5)


class TestRsrq:
    def test_anchor_points_match_paper(self):
        model = PropagationModel()
        assert model.rsrq_db(-82.0) == pytest.approx(-10.5, abs=0.1)
        assert model.rsrq_db(-108.5) == pytest.approx(-25.5, abs=0.1)

    def test_clamped_to_valid_range(self):
        model = PropagationModel()
        assert model.rsrq_db(-40.0) == -5.0
        assert model.rsrq_db(-140.0) == -30.0

    def test_interference_margin_degrades_rsrq(self):
        model = PropagationModel()
        assert model.rsrq_db(-90.0, interference_margin_db=3.0) == \
            pytest.approx(model.rsrq_db(-90.0) - 3.0)

    @given(st.floats(min_value=-120.0, max_value=-60.0))
    @settings(max_examples=50)
    def test_monotone_in_rsrp(self, rsrp):
        model = PropagationModel()
        assert model.rsrq_db(rsrp + 1.0) >= model.rsrq_db(rsrp)

    def test_arrays_map_elementwise_as_scalars_do(self):
        model = PropagationModel(noise_floor_dbm=-116.0)
        rsrp = np.array([[-150.0, -108.5, -97.3, -82.0, -40.0],
                         [-116.0, -115.9, -101.37, -63.2, -5.0]])
        margins = np.array([0.0, 1.5, 4.0, 0.0, 2.0])
        slope = (-25.5 + 10.5) / (-108.5 + 82.0)
        expected = [[min(max(-10.5 + slope * (value + 82.0) - margin, -30.0), -5.0)
                     for value, margin in zip(row, margins.tolist())]
                    for row in rsrp.tolist()]
        assert model.rsrq_db(rsrp, margins).tolist() == expected
        assert [[model.rsrq_db(value, margin)
                 for value, margin in zip(row, margins.tolist())]
                for row in rsrp.tolist()] == expected
        assert model.is_measurable(rsrp).tolist() == \
            [[value > -116.0 for value in row] for row in rsrp.tolist()]

    def test_measurability_floor(self):
        model = PropagationModel(noise_floor_dbm=-116.0)
        assert model.is_measurable(-110.0)
        assert not model.is_measurable(-117.0)
