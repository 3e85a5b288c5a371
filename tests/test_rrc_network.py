"""Tests for network-side (PCell) decision logic."""

import pytest

from repro.cells.cell import CellIdentity, Rat
from repro.radio.environment import CellObservation, RadioEnvironment
from repro.radio.propagation import PropagationModel
from repro.rrc.capabilities import DeviceCapabilities
from repro.rrc.network import NsaNetworkLogic, SaNetworkLogic
from repro.rrc.policies import ChannelPolicy, OperatorPolicy
from repro.rrc.session import CellTable, TickView
from tests.conftest import lte_cell, nr_cell


def obs(environment, pci, channel, rsrp, rat=Rat.NR, rsrq=None):
    """A synthetic observation pinned to a deployed cell."""
    identity = CellIdentity(pci, channel, rat)
    cell = environment.cell(identity)
    if rsrq is None:
        rsrq = environment.propagation.rsrq_db(rsrp, cell.interference_margin_db)
    return CellObservation(cell=cell, rsrp_dbm=rsrp, rsrq_db=rsrq,
                           measurable=rsrp > environment.propagation.noise_floor_dbm)


def view(environment, *observations):
    """A tick view in which exactly the observed cells are relevant."""
    cells = environment.cells
    index = {cell.identity: i for i, cell in enumerate(cells)}
    rsrp, rsrq = [-200.0] * len(cells), [-40.0] * len(cells)
    measurable = [False] * len(cells)
    for observation in observations:
        i = index[observation.identity]
        rsrp[i], rsrq[i] = observation.rsrp_dbm, observation.rsrq_db
        measurable[i] = observation.measurable
    relevant = sorted(index[observation.identity] for observation in observations)
    return TickView(CellTable.build(cells, relevant), rsrp, rsrq, measurable)


def at(tick, identity):
    """The cell index of ``identity`` in ``tick``'s table."""
    return tick.table.index[identity]


@pytest.fixture
def sa_environment(propagation):
    cells = [
        nr_cell(393, 521310, 100.0, 100.0),
        nr_cell(393, 501390, 100.0, 100.0, width=100.0),
        nr_cell(104, 501390, 600.0, 600.0, width=100.0),
        nr_cell(273, 387410, 100.0, 100.0, power=16.0, width=10.0),
        nr_cell(371, 387410, 500.0, 500.0, power=16.0, width=10.0),
        nr_cell(273, 398410, 100.0, 100.0, power=22.0, width=10.0),
    ]
    return RadioEnvironment(cells, propagation)


@pytest.fixture
def sa_policy():
    return OperatorPolicy(
        name="OP_T", mode="SA",
        sa_pcell_channels=(521310, 501390),
        sa_scell_channels=(501390, 521310, 387410, 398410),
        channel_policies={
            387410: ChannelPolicy(387410, Rat.NR, downlink_only_scell_config=True),
            398410: ChannelPolicy(398410, Rat.NR, downlink_only_scell_config=True),
        })


ONEPLUS_12R = DeviceCapabilities(name="12R", max_sa_scells=3, mimo_layers=2,
                                 fragile_scell_bands=frozenset({"n25"}))
ONEPLUS_13R = DeviceCapabilities(name="13R", max_sa_scells=1, mimo_layers=4)
NO_CA = DeviceCapabilities(name="old", sa_carrier_aggregation=False,
                           max_sa_scells=0)


class TestBlindScellSet:
    def test_standard_device_gets_co_sited_and_nearest(self, sa_environment,
                                                       sa_policy):
        logic = SaNetworkLogic(sa_environment, sa_policy)
        pcell = CellIdentity(393, 521310, Rat.NR)
        scells = logic.blind_scell_set(pcell, ONEPLUS_12R)
        assert CellIdentity(393, 501390, Rat.NR) in scells  # co-sited twin
        assert CellIdentity(273, 387410, Rat.NR) in scells  # nearest n25
        assert CellIdentity(273, 398410, Rat.NR) in scells
        assert len(scells) == 3

    def test_never_includes_pcell_channel(self, sa_environment, sa_policy):
        logic = SaNetworkLogic(sa_environment, sa_policy)
        pcell = CellIdentity(393, 521310, Rat.NR)
        scells = logic.blind_scell_set(pcell, ONEPLUS_12R)
        assert all(identity.channel != pcell.channel for identity in scells)

    def test_lean_device_skips_downlink_only_channels(self, sa_environment,
                                                      sa_policy):
        logic = SaNetworkLogic(sa_environment, sa_policy)
        pcell = CellIdentity(393, 521310, Rat.NR)
        scells = logic.blind_scell_set(pcell, ONEPLUS_13R)
        assert scells == [CellIdentity(393, 501390, Rat.NR)]

    def test_no_ca_device_gets_nothing(self, sa_environment, sa_policy):
        logic = SaNetworkLogic(sa_environment, sa_policy)
        pcell = CellIdentity(393, 521310, Rat.NR)
        assert logic.blind_scell_set(pcell, NO_CA) == []


class TestScellModification:
    def test_intra_channel_replacement(self, sa_environment, sa_policy):
        logic = SaNetworkLogic(sa_environment, sa_policy)
        tick = view(sa_environment, obs(sa_environment, 273, 387410, -90.0),
                    obs(sa_environment, 371, 387410, -82.0))
        serving = {1: at(tick, CellIdentity(273, 387410, Rat.NR))}
        decision = logic.scell_modification(serving, tick)
        assert decision is not None
        assert decision.release_index == 1
        assert tick.table.identities[decision.add_cell] == \
            CellIdentity(371, 387410, Rat.NR)

    def test_no_replacement_below_offset(self, sa_environment, sa_policy):
        logic = SaNetworkLogic(sa_environment, sa_policy)
        tick = view(sa_environment, obs(sa_environment, 273, 387410, -90.0),
                    obs(sa_environment, 371, 387410, -85.0))
        serving = {1: at(tick, CellIdentity(273, 387410, Rat.NR))}
        assert logic.scell_modification(serving, tick) is None

    def test_unmeasurable_serving_cell_not_modified(self, sa_environment,
                                                    sa_policy):
        logic = SaNetworkLogic(sa_environment, sa_policy)
        tick = view(sa_environment, obs(sa_environment, 273, 387410, -130.0),
                    obs(sa_environment, 371, 387410, -85.0))
        serving = {1: at(tick, CellIdentity(273, 387410, Rat.NR))}
        assert logic.scell_modification(serving, tick) is None

    def test_cross_channel_neighbours_ignored(self, sa_environment, sa_policy):
        logic = SaNetworkLogic(sa_environment, sa_policy)
        tick = view(sa_environment, obs(sa_environment, 273, 387410, -90.0),
                    obs(sa_environment, 273, 398410, -70.0))
        serving = {1: at(tick, CellIdentity(273, 387410, Rat.NR))}
        assert logic.scell_modification(serving, tick) is None


@pytest.fixture
def nsa_environment(propagation):
    cells = [
        lte_cell(380, 5815, 100.0, 100.0, power=14.0, width=10.0),
        lte_cell(380, 5145, 100.0, 100.0, power=4.0, width=10.0, margin=2.0),
        lte_cell(222, 66661, 500.0, 500.0, margin=5.0),
        nr_cell(380, 174770, 100.0, 100.0, power=3.0, width=10.0),
        nr_cell(380, 632736, 100.0, 100.0, power=15.0, width=40.0),
        nr_cell(380, 658080, 100.0, 100.0, power=15.0, width=40.0),
    ]
    return RadioEnvironment(cells, propagation)


@pytest.fixture
def nsa_policy():
    return OperatorPolicy(
        name="OP_A", mode="NSA",
        nsa_b1_threshold_dbm=-115.0,
        nsa_scg_a3_offset_db=5.0,
        channel_policies={
            5815: ChannelPolicy(5815, Rat.LTE, allows_scg=False,
                                redirect_on_5g_report_to=5145,
                                handover_a3_offset_db=6.0),
        })


class TestRedirect:
    def test_redirect_prefers_same_pci_twin(self, nsa_environment, nsa_policy):
        logic = NsaNetworkLogic(nsa_environment, nsa_policy)
        target = logic.redirect_target(CellIdentity(380, 5815, Rat.LTE))
        assert target == CellIdentity(380, 5145, Rat.LTE)

    def test_no_redirect_on_normal_channel(self, nsa_environment, nsa_policy):
        logic = NsaNetworkLogic(nsa_environment, nsa_policy)
        assert logic.redirect_target(CellIdentity(222, 66661, Rat.LTE)) is None

    def test_redirect_falls_back_to_nearest(self, propagation, nsa_policy):
        cells = [lte_cell(99, 5815, 100.0, 100.0, power=14.0),
                 lte_cell(55, 5145, 900.0, 900.0, power=4.0)]
        environment = RadioEnvironment(cells, propagation)
        logic = NsaNetworkLogic(environment, nsa_policy)
        target = logic.redirect_target(CellIdentity(99, 5815, Rat.LTE))
        assert target == CellIdentity(55, 5145, Rat.LTE)

    def test_redirect_none_when_channel_absent(self, propagation, nsa_policy):
        cells = [lte_cell(99, 5815, 100.0, 100.0, power=14.0)]
        environment = RadioEnvironment(cells, propagation)
        logic = NsaNetworkLogic(environment, nsa_policy)
        assert logic.redirect_target(CellIdentity(99, 5815, Rat.LTE)) is None


class TestHandoverDecision:
    def test_redirect_fires_on_5g_report(self, nsa_environment, nsa_policy):
        logic = NsaNetworkLogic(nsa_environment, nsa_policy)
        pcell = CellIdentity(380, 5815, Rat.LTE)
        tick = view(nsa_environment, obs(nsa_environment, 380, 5815, -90.0, Rat.LTE))
        decision = logic.handover_decision(at(tick, pcell), tick,
                                           saw_5g_report=True, scg_active=False)
        assert decision is not None
        assert decision.blind
        assert tick.table.channels[decision.target] == 5145

    def test_no_redirect_without_5g_report(self, nsa_environment, nsa_policy):
        logic = NsaNetworkLogic(nsa_environment, nsa_policy)
        pcell = CellIdentity(380, 5815, Rat.LTE)
        tick = view(nsa_environment, obs(nsa_environment, 380, 5815, -90.0, Rat.LTE))
        assert logic.handover_decision(at(tick, pcell), tick,
                                       saw_5g_report=False,
                                       scg_active=False) is None

    def test_a3_uses_per_channel_offset(self, nsa_environment, nsa_policy):
        logic = NsaNetworkLogic(nsa_environment, nsa_policy)
        pcell = CellIdentity(222, 66661, Rat.LTE)
        serving = obs(nsa_environment, 222, 66661, -100.0, Rat.LTE, rsrq=-18.0)
        # 5815 has a 6 dB offset: an 8 dB better RSRQ triggers the handover.
        low_band = obs(nsa_environment, 380, 5815, -95.0, Rat.LTE, rsrq=-10.0)
        tick = view(nsa_environment, serving, low_band)
        decision = logic.handover_decision(at(tick, pcell), tick,
                                           saw_5g_report=False, scg_active=True)
        assert decision is not None
        assert tick.table.channels[decision.target] == 5815
        assert not decision.keep_scg  # 5815 never works with an SCG

    def test_a3_default_offset_is_stricter(self, nsa_environment, nsa_policy):
        logic = NsaNetworkLogic(nsa_environment, nsa_policy)
        pcell = CellIdentity(380, 5145, Rat.LTE)
        serving = obs(nsa_environment, 380, 5145, -100.0, Rat.LTE, rsrq=-18.0)
        mid_band = obs(nsa_environment, 222, 66661, -95.0, Rat.LTE, rsrq=-10.0)
        # 8 dB better, but the default offset is 10 dB: no handover.
        tick = view(nsa_environment, serving, mid_band)
        assert logic.handover_decision(at(tick, pcell), tick,
                                       saw_5g_report=False,
                                       scg_active=False) is None

    def test_keep_scg_on_normal_target(self, nsa_environment, nsa_policy):
        logic = NsaNetworkLogic(nsa_environment, nsa_policy)
        pcell = CellIdentity(380, 5145, Rat.LTE)
        serving = obs(nsa_environment, 380, 5145, -110.0, Rat.LTE, rsrq=-25.0)
        mid_band = obs(nsa_environment, 222, 66661, -80.0, Rat.LTE, rsrq=-9.0)
        tick = view(nsa_environment, serving, mid_band)
        decision = logic.handover_decision(at(tick, pcell), tick,
                                           saw_5g_report=False, scg_active=True)
        assert decision is not None
        assert decision.keep_scg


class TestScgManagement:
    def test_addition_picks_strongest_above_b1(self, nsa_environment, nsa_policy):
        logic = NsaNetworkLogic(nsa_environment, nsa_policy)
        pcell = CellIdentity(380, 5145, Rat.LTE)
        tick = view(nsa_environment,
                    obs(nsa_environment, 380, 174770, -100.0),
                    obs(nsa_environment, 380, 632736, -95.0),
                    obs(nsa_environment, 380, 658080, -97.0))
        addition = logic.scg_addition(at(tick, pcell), tick)
        assert addition is not None
        pscell, partners = addition
        identities = tick.table.identities
        assert identities[pscell] == CellIdentity(380, 632736, Rat.NR)
        assert [identities[cell] for cell in partners] == \
            [CellIdentity(380, 658080, Rat.NR)]

    def test_addition_blocked_on_disabled_channel(self, nsa_environment,
                                                  nsa_policy):
        logic = NsaNetworkLogic(nsa_environment, nsa_policy)
        pcell = CellIdentity(380, 5815, Rat.LTE)
        tick = view(nsa_environment, obs(nsa_environment, 380, 632736, -95.0))
        assert logic.scg_addition(at(tick, pcell), tick) is None

    def test_addition_none_below_b1(self, nsa_environment, nsa_policy):
        logic = NsaNetworkLogic(nsa_environment, nsa_policy)
        pcell = CellIdentity(380, 5145, Rat.LTE)
        tick = view(nsa_environment, obs(nsa_environment, 380, 632736, -117.0))
        assert logic.scg_addition(at(tick, pcell), tick) is None

    def test_change_requires_a3_offset(self, nsa_environment, nsa_policy):
        logic = NsaNetworkLogic(nsa_environment, nsa_policy)
        pscell = CellIdentity(380, 632736, Rat.NR)
        tick = view(nsa_environment, obs(nsa_environment, 380, 632736, -100.0),
                    obs(nsa_environment, 380, 658080, -94.0))
        change = logic.scg_change(at(tick, pscell), tick)
        assert tick.table.identities[change] == CellIdentity(380, 658080, Rat.NR)

    def test_change_none_when_close(self, nsa_environment, nsa_policy):
        logic = NsaNetworkLogic(nsa_environment, nsa_policy)
        pscell = CellIdentity(380, 632736, Rat.NR)
        tick = view(nsa_environment, obs(nsa_environment, 380, 632736, -100.0),
                    obs(nsa_environment, 380, 658080, -98.0))
        assert logic.scg_change(at(tick, pscell), tick) is None
