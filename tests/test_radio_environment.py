"""Tests for the radio environment (deployed cells and their lookups).

Observations of the environment are tested on the per-run sampler in
``tests/test_rrc_sampler.py``.
"""

import pytest

from repro.cells.cell import CellIdentity, Rat
from repro.radio.environment import RadioEnvironment
from repro.radio.geometry import Point
from tests.conftest import nr_cell


class TestEnvironmentConstruction:
    def test_duplicate_identities_rejected(self, propagation):
        cells = [nr_cell(1), nr_cell(1)]
        with pytest.raises(ValueError):
            RadioEnvironment(cells, propagation)

    def test_cells_copy_is_returned(self, small_environment):
        cells = small_environment.cells
        cells.clear()
        assert small_environment.cells  # internal list unaffected


class TestLookups:
    def test_cells_of_rat(self, small_environment):
        assert len(small_environment.cells_of_rat(Rat.NR)) == 4
        assert len(small_environment.cells_of_rat(Rat.LTE)) == 1

    def test_cells_on_channel(self, small_environment):
        on_387410 = small_environment.cells_on_channel(387410, Rat.NR)
        assert sorted(cell.pci for cell in on_387410) == [273, 371]

    def test_channels_of_rat_sorted(self, small_environment):
        assert small_environment.channels_of_rat(Rat.NR) == \
            [387410, 501390, 521310]

    def test_cell_lookup(self, small_environment):
        identity = CellIdentity(273, 387410, Rat.NR)
        assert small_environment.cell(identity).identity == identity
        assert small_environment.has_cell(identity)

    def test_missing_cell_raises(self, small_environment):
        with pytest.raises(KeyError):
            small_environment.cell(CellIdentity(999, 387410, Rat.NR))
        assert not small_environment.has_cell(CellIdentity(999, 387410, Rat.NR))


class TestObservation:
    def test_mean_rsrp_map(self, small_environment):
        identity = CellIdentity(273, 387410, Rat.NR)
        points = [Point(100.0, 100.0), Point(900.0, 900.0)]
        values = small_environment.mean_rsrp_map(identity, points)
        assert len(values) == 2
        assert values[0] > values[1]
