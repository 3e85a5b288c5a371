"""Tests for the UE-side RRC context."""

import pytest

from repro.cells.cell import Rat
from repro.rrc.ue import FiveGState, RrcState, UeContext
from tests.conftest import cell_id

P41 = cell_id(393, 521310)
S25 = cell_id(273, 387410)
S25B = cell_id(371, 387410)
LTE_P = cell_id(380, 5145, Rat.LTE)
NR_PS = cell_id(66, 632736)

# The context takes any hashable cell; these tests use identities, so
# the per-cell columns are keyed by identity.
RATS = {cell: cell.rat for cell in (P41, S25, S25B, LTE_P, NR_PS)}
CHANNELS = {cell: cell.channel for cell in (P41, S25, S25B, LTE_P, NR_PS)}


@pytest.fixture
def ue():
    return UeContext()


class TestStates:
    def test_starts_idle(self, ue):
        assert ue.state is RrcState.IDLE
        assert ue.five_g_state(RATS) is FiveGState.OFF_IDLE
        assert not ue.connected

    def test_sa_connection_is_on(self, ue):
        ue.establish(P41)
        assert ue.five_g_state(RATS) is FiveGState.ON_SA
        assert ue.five_g_state(RATS).is_on

    def test_lte_only_is_off(self, ue):
        ue.establish(LTE_P)
        assert ue.five_g_state(RATS) is FiveGState.OFF_LTE_ONLY
        assert not ue.five_g_state(RATS).is_on

    def test_nsa_with_scg_is_on(self, ue):
        ue.establish(LTE_P)
        ue.attach_scg(NR_PS, [])
        assert ue.five_g_state(RATS) is FiveGState.ON_NSA


class TestScellTable:
    def test_indices_increment(self, ue):
        ue.establish(P41)
        assert ue.add_scell(S25) == 1
        assert ue.add_scell(S25B) == 2
        assert ue.scells == {1: S25, 2: S25B}

    def test_add_requires_connection(self, ue):
        with pytest.raises(RuntimeError):
            ue.add_scell(S25)

    def test_release_by_index(self, ue):
        ue.establish(P41)
        ue.add_scell(S25)
        released = ue.release_scell_index(1)
        assert released == S25
        assert ue.scells == {}

    def test_release_unknown_index(self, ue):
        ue.establish(P41)
        assert ue.release_scell_index(9) is None

    def test_replace_assigns_fresh_index(self, ue):
        ue.establish(P41)
        first = ue.add_scell(S25)
        new_index = ue.replace_scell(first, S25B)
        assert new_index == 2
        assert ue.scells == {2: S25B}

    def test_scell_index_of(self, ue):
        ue.establish(P41)
        index = ue.add_scell(S25)
        assert ue.scell_index_of(S25) == index
        assert ue.scell_index_of(S25B) is None

    def test_serving_scell_on_channel(self, ue):
        ue.establish(P41)
        ue.add_scell(S25)
        assert ue.serving_scell_on_channel(387410, CHANNELS) == S25
        assert ue.serving_scell_on_channel(398410, CHANNELS) is None


class TestServingSet:
    def test_serving_identities_order(self, ue):
        ue.establish(LTE_P)
        ue.attach_scg(NR_PS, [S25])
        identities = ue.serving_cells()
        assert identities[0] == LTE_P
        assert NR_PS in identities and S25 in identities

    def test_release_all_resets_everything(self, ue):
        ue.establish(P41)
        ue.add_scell(S25)
        ue.note_scell_measurability(S25, False)
        ue.release_all(idle_until_s=42.0)
        assert ue.state is RrcState.IDLE
        assert ue.pcell is None
        assert ue.scells == {}
        assert ue.idle_until_s == 42.0
        assert ue.unmeasurable_ticks == {}

    def test_establish_clears_previous_context(self, ue):
        ue.establish(LTE_P)
        ue.attach_scg(NR_PS, [])
        ue.establish(P41)
        assert ue.scg_pscell is None
        assert ue.next_scell_index == 1


class TestHandover:
    def test_handover_drops_scells(self, ue):
        ue.establish(LTE_P)
        ue.add_scell(cell_id(380, 5815, Rat.LTE))
        ue.handover(cell_id(222, 66661, Rat.LTE), keep_scg=True)
        assert ue.scells == {}
        assert ue.pcell.channel == 66661

    def test_handover_keep_scg(self, ue):
        ue.establish(LTE_P)
        ue.attach_scg(NR_PS, [])
        ue.handover(cell_id(222, 66661, Rat.LTE), keep_scg=True)
        assert ue.scg_pscell == NR_PS

    def test_handover_release_scg(self, ue):
        ue.establish(LTE_P)
        ue.attach_scg(NR_PS, [])
        ue.handover(cell_id(222, 66661, Rat.LTE), keep_scg=False)
        assert ue.scg_pscell is None

    def test_attach_scg_requires_connection(self, ue):
        with pytest.raises(RuntimeError):
            ue.attach_scg(NR_PS, [])


class TestFailureCounters:
    def test_unmeasurable_counter_accumulates_and_resets(self, ue):
        assert ue.note_scell_measurability(S25, False) == 1
        assert ue.note_scell_measurability(S25, False) == 2
        assert ue.note_scell_measurability(S25, True) == 0
        assert ue.note_scell_measurability(S25, False) == 1

    def test_poor_rsrq_counter(self, ue):
        assert ue.note_scell_rsrq(S25, -25.0, poor_threshold_db=-22.0) == 1
        assert ue.note_scell_rsrq(S25, -22.0, poor_threshold_db=-22.0) == 2
        assert ue.note_scell_rsrq(S25, -10.0, poor_threshold_db=-22.0) == 0

    def test_pcell_weak_counter(self, ue):
        assert ue.note_pcell_strength(-125.0, rlf_threshold_dbm=-121.0) == 1
        assert ue.note_pcell_strength(-122.0, rlf_threshold_dbm=-121.0) == 2
        assert ue.note_pcell_strength(-100.0, rlf_threshold_dbm=-121.0) == 0

    def test_release_scell_clears_its_counters(self, ue):
        ue.establish(P41)
        index = ue.add_scell(S25)
        ue.note_scell_measurability(S25, False)
        ue.release_scell_index(index)
        assert S25 not in ue.unmeasurable_ticks
