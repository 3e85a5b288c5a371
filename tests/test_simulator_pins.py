"""Pins on what the radio/RRC simulator produces.

The campaign pins (``tests/test_campaign_pins.py``) only see 60 s
stationary runs.  These pin the simulator itself over full-length runs,
so a divergence anywhere in a run, or on the moving path, shows:

* the trace SHA-256 of one 300 s stationary run in each fixture area
  (OP_T A1/A2, OP_A A6/A7, OP_V A9/A10, OnePlus 12R), at the location
  the seed-0 fixture campaign picks;
* the same for the branches those six runs do not reach: the 12R in
  every other area (OP_T A3-A5, OP_A A8, OP_V A11 and OP_T over NSA in
  C2), the five other phones in OP_T A1 and OP_A A7 (lean SCells,
  n71-first PCells, no carrier aggregation, no 5G on OP_A), and the
  legacy A2-B1 release in OP_A A6 and OP_V A9;
* the trace SHA-256 of a 300 s walking run in A1 and in A9;
* the cell set and route length of a drive inventory;
* exact values of the fading, execution-time re-draw, shadowing and
  RSRQ maps.

Each value was recorded from the simulator before its sampling path was
vectorised, and the other-area, other-phone and legacy A2-B1 traces
before its RRC logic moved to cell indices; any change to one is a
change of simulator output.
"""

import dataclasses
import hashlib

import pytest

from repro.campaign import build_deployment, device, operator
from repro.campaign.driving import drive_inventory
from repro.campaign.locations import sparse_locations, walking_path
from repro.campaign.operators import EXTENDED_OPERATORS, OPERATORS
from repro.campaign.runner import run_once
from repro.cells.cell import CellIdentity, DeployedCell, Rat
from repro.core.seeding import stable_seed
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel, ShadowingField

PHONE = "OnePlus 12R"

STATIONARY_SHA256 = {
    ("OP_T", "A1"): "5ed25514a49ac56e032347298b93dec0e7284b38074345109b9b0b32ac71c86d",
    ("OP_T", "A2"): "d6797fbea4fd11190289ea11b658e6cc278872bd138b8aa72cfa1ea84274fe54",
    ("OP_A", "A6"): "6f2f693622bb95db1c72ae8a2e67dea946a9037b9e6ec731e847c00b8e069ae5",
    ("OP_A", "A7"): "9297e84e72c262f89cc7124207b9cbc790677ea81256ffd41991f4018c8b1563",
    ("OP_V", "A9"): "d555df92035b883366cb8227b50c3febfefd5ed346b29f480eba899c60a144d6",
    ("OP_V", "A10"): "8ad41157f83d7e1876ff93f79cddbfe2b8cea61ebf4a6f148ef2b4b47669b0ef",
}

#: The 12R in the areas the fixture campaign leaves out.
AREA_SHA256 = {
    ("OP_T", "A3"): "1bdf80021f24a4b9298d51444c884ccf7add8554db7bd3c79c2b9c7e438d8fc7",
    ("OP_T", "A4"): "f8e649d8a6d8833a07e1388d70d8386b70f81732f41eba24be011ec72f37343c",
    ("OP_T", "A5"): "d52c32b0357b67ce6b4744438bae4170eea57660b9829f8dc007987da4a11d35",
    ("OP_A", "A8"): "de15de95022b03a019874a9bf339d67efc4d22160c2262bcf4cd0f519691f152",
    ("OP_V", "A11"): "25b300fb4f5361ead1e61c4796485f3390847fbbbd47ac771125b96c1f879204",
    ("OP_T_NSA", "C2-N1"): "ceaa8c95574741aaf95320d242fe37968e54704b0a07578df628b0d6f999fe59",
    ("OP_T_NSA", "C2-N2"): "978badeb74f8b5853b5eda88d668dfdd446d4f8825ad7d109db13d09830a7300",
}

#: The other five phones: lean SCells (13R), n71-first PCells (13,
#: S23), no SA carrier aggregation (10 Pro, Pixel 5), no 5G on OP_A
#: (10 Pro).
DEVICE_SHA256 = {
    ("OP_T", "A1", "OnePlus 13R"): "1d5280d919ecb9912514f6962385611cfefb06b045f9d175549acc597e3a25a0",
    ("OP_A", "A7", "OnePlus 13R"): "2478a9c8d7c482fb4aea1d614eb235f20e749ee2f2cecac9fc69d359b0066faa",
    ("OP_T", "A1", "OnePlus 13"): "47c250b4a9f21fe2046cc0ae212917498144589f3332e252000a28d074098907",
    ("OP_A", "A7", "OnePlus 13"): "5a02fd781ceb6759e73a71e9cdf6f0ec617e7608209b46dbfa4db887b362a38c",
    ("OP_T", "A1", "Samsung S23"): "f4037803121cb52c6faebd026e23eaf80ad35acca08bf83597e206c82571a9ad",
    ("OP_A", "A7", "Samsung S23"): "6bc64b59e8c38861025d159bd11ffce4bb6c49b21f92eeeff3e9f038afcf6c6a",
    ("OP_T", "A1", "OnePlus 10 Pro"): "a8fe6fa169102687f9d28903f482fc4d34634f333bdc04fbf77a05c6c1b8650a",
    ("OP_A", "A7", "OnePlus 10 Pro"): "564845ad3733d9f311aca74d076d868df71462432397531c227e3df45b46ef63",
    ("OP_T", "A1", "Pixel 5"): "098da68e00de9fc0a53dfe99a779d0bc386320f3d3368732ea07529df33c1bac",
    ("OP_A", "A7", "Pixel 5"): "a19026e5836b0766aa52ff4984cb09afedc6bc43bc775158b36c0952284ceb7f",
}

#: The legacy A2-B1 policy of ``benchmarks/test_ablation_a2b1.py``, at
#: the first fixture location (1-based) where its A2 release fires.
LEGACY_A2B1 = {"legacy_a2b1": True, "legacy_a2_threshold_dbm": -100.0,
               "nsa_b1_threshold_dbm": -108.0}
LEGACY_A2B1_SHA256 = {
    ("OP_A", "A6", 2): "1b3dd3f06f52691c98b6e8ef2a210f3b3711d1bb3a3c38e835ba7ccbfaf694d6",
    ("OP_V", "A9", 1): "fac34fc95fe7138f9f7d5b65b29352afe497aec84f9080723ce7cf4e8fe8ed29",
}

WALKING_SHA256 = {
    ("OP_T", "A1"): "9969bacf8d123e7c7e3f1c595003a1ea9c3706fce1cdebdcab1c14f0aeb7790d",
    ("OP_V", "A9"): "0570a7d20b9ce69be10dbb194aea47266002f57842e9b557f239ee621dfea058",
}


PROFILES = {**OPERATORS, **EXTENDED_OPERATORS}


def fixture_points(operator_name, area_name, count):
    """The first ``count`` locations the seed-0 campaign samples."""
    spec = PROFILES[operator_name].area_spec(area_name)
    return sparse_locations(spec.area, count,
                            seed=stable_seed(0, operator_name, area_name))


def trace_sha256(result) -> str:
    return hashlib.sha256(result.trace.to_jsonl().encode("utf-8")).hexdigest()


def cell_set_sha256(identities) -> str:
    lines = sorted(f"{identity.rat.value}:{identity.notation}"
                   for identity in identities)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def stationary_sha256(profile, area_name, phone=PHONE, location=1) -> str:
    """One 300 s stationary run at the ``location``-th fixture point."""
    point = fixture_points(profile.name, area_name, location)[-1]
    result = run_once(build_deployment(profile, area_name), profile,
                      device(phone), point, f"{area_name}-P{location}", 0,
                      duration_s=300, keep_trace=True)
    return trace_sha256(result)


class TestRunTraces:
    @pytest.mark.parametrize("operator_name,area_name", sorted(STATIONARY_SHA256))
    def test_stationary_300s(self, operator_name, area_name):
        assert stationary_sha256(operator(operator_name), area_name) == \
            STATIONARY_SHA256[operator_name, area_name]

    @pytest.mark.parametrize("operator_name,area_name", sorted(AREA_SHA256))
    def test_stationary_300s_other_areas(self, operator_name, area_name):
        assert stationary_sha256(PROFILES[operator_name], area_name) == \
            AREA_SHA256[operator_name, area_name]

    @pytest.mark.parametrize("operator_name,area_name,phone", sorted(DEVICE_SHA256))
    def test_stationary_300s_other_devices(self, operator_name, area_name, phone):
        assert stationary_sha256(operator(operator_name), area_name, phone) == \
            DEVICE_SHA256[operator_name, area_name, phone]

    @pytest.mark.parametrize("operator_name,area_name,location",
                             sorted(LEGACY_A2B1_SHA256))
    def test_stationary_300s_legacy_a2b1(self, operator_name, area_name, location):
        profile = operator(operator_name)
        profile = dataclasses.replace(
            profile, policy=dataclasses.replace(profile.policy, **LEGACY_A2B1))
        assert stationary_sha256(profile, area_name, location=location) == \
            LEGACY_A2B1_SHA256[operator_name, area_name, location]

    @pytest.mark.parametrize("operator_name,area_name", sorted(WALKING_SHA256))
    def test_walking_300s(self, operator_name, area_name):
        profile = operator(operator_name)
        start, end = fixture_points(operator_name, area_name, 2)
        result = run_once(build_deployment(profile, area_name), profile,
                          device(PHONE), start, f"{area_name}-walk", 0,
                          duration_s=300, mode="walking",
                          point_provider=walking_path(start, end, 300),
                          keep_trace=True)
        assert result.metadata.mode == "walking"
        assert trace_sha256(result) == WALKING_SHA256[operator_name, area_name]


class TestDriveInventory:
    @pytest.fixture(scope="class")
    def deployment(self):
        return build_deployment(operator("OP_T"), "A1")

    def test_default_floor(self, deployment):
        inventory = drive_inventory(deployment)
        assert (len(inventory.observed), inventory.points_driven,
                inventory.saturated) == (69, 311, True)
        assert cell_set_sha256(inventory.observed) == \
            "0fb545f7f730c4e3d290914a4201c2ec32eb0480987026339e870313a0af2f97"

    def test_high_floor_finds_a_subset(self, deployment):
        inventory = drive_inventory(deployment, detection_floor_dbm=-80.0)
        assert (len(inventory.observed), inventory.points_driven,
                inventory.saturated) == (68, 363, False)
        assert cell_set_sha256(inventory.observed) == \
            "9b7756f3df6f15ee8a4278a1e80b20d3f74431c35e5d5bf925af934138616aa5"


class TestRadioValues:
    @pytest.fixture
    def model(self):
        return PropagationModel(seed=11, fading_sigma_db=2.0)

    @pytest.fixture
    def cell(self):
        return DeployedCell(identity=CellIdentity(393, 521310, Rat.NR),
                            site_xy_m=(0.0, 0.0), tx_power_dbm=21.0)

    @pytest.mark.parametrize("tick,value", [
        (0, "-0x1.448dc5d4744f1p+0"),
        (1, "0x1.559eda46610fep-1"),
        (299, "0x1.04a898d0c43e5p+1"),
    ])
    def test_fading(self, model, cell, tick, value):
        assert model.fading_db(cell, 7, tick) == float.fromhex(value)

    def test_fading_late_tick_first(self, model, cell):
        # Asking for a late tick before an early one gives the same values.
        assert model.fading_db(cell, 7, 299) == float.fromhex("0x1.04a898d0c43e5p+1")
        assert model.fading_db(cell, 7, 0) == float.fromhex("-0x1.448dc5d4744f1p+0")

    def test_fresh_fading(self, model, cell):
        assert model.fresh_fading_db(cell, 7, 12) == \
            float.fromhex("0x1.134d3a86500e4p-4")
        assert model.fresh_fading_db(cell, 7, 12, "ho") == \
            float.fromhex("0x1.0483a13e31ca4p+1")

    def test_shadowing(self):
        field = ShadowingField(11, "NR:393@521310", sigma_db=8.0)
        assert field.value_db(Point(123.0, 456.0)) == \
            float.fromhex("0x1.3d692a1b5484ap+2")

    def test_rsrq(self, model):
        value = model.rsrq_db(-97.25, 2.0)
        assert type(value) is float
        assert value == float.fromhex("-0x1.521cfb2b78c14p+4")
