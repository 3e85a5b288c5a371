"""Pins on what the radio/RRC simulator produces.

The campaign pins (``tests/test_campaign_pins.py``) only see 60 s
stationary runs.  These pin the simulator itself over full-length runs,
so a divergence anywhere in a run, or on the moving path, shows:

* the trace SHA-256 of one 300 s stationary run in each fixture area
  (OP_T A1/A2, OP_A A6/A7, OP_V A9/A10, OnePlus 12R), at the location
  the seed-0 fixture campaign picks;
* the trace SHA-256 of a 300 s walking run in A1 and in A9;
* the cell set and route length of a drive inventory;
* exact values of the fading, execution-time re-draw, shadowing and
  RSRQ maps.

Each value was recorded from the simulator before its sampling path was
vectorised; any change to one is a change of simulator output.
"""

import hashlib

import pytest

from repro.campaign import build_deployment, device, operator
from repro.campaign.driving import drive_inventory
from repro.campaign.locations import sparse_locations, walking_path
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

WALKING_SHA256 = {
    ("OP_T", "A1"): "9969bacf8d123e7c7e3f1c595003a1ea9c3706fce1cdebdcab1c14f0aeb7790d",
    ("OP_V", "A9"): "0570a7d20b9ce69be10dbb194aea47266002f57842e9b557f239ee621dfea058",
}


def fixture_points(operator_name, area_name, count):
    """The first ``count`` locations the seed-0 campaign samples."""
    spec = operator(operator_name).area_spec(area_name)
    return sparse_locations(spec.area, count,
                            seed=stable_seed(0, operator_name, area_name))


def trace_sha256(result) -> str:
    return hashlib.sha256(result.trace.to_jsonl().encode("utf-8")).hexdigest()


def cell_set_sha256(identities) -> str:
    lines = sorted(f"{identity.rat.value}:{identity.notation}"
                   for identity in identities)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class TestRunTraces:
    @pytest.mark.parametrize("operator_name,area_name", sorted(STATIONARY_SHA256))
    def test_stationary_300s(self, operator_name, area_name):
        profile = operator(operator_name)
        (point,) = fixture_points(operator_name, area_name, 1)
        result = run_once(build_deployment(profile, area_name), profile,
                          device(PHONE), point, f"{area_name}-P1", 0,
                          duration_s=300, keep_trace=True)
        assert trace_sha256(result) == STATIONARY_SHA256[operator_name, area_name]

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
