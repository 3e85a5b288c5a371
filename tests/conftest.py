"""Shared fixtures: small environments, crafted traces, loop factories."""

from __future__ import annotations

import pytest

from repro.cells.cell import CellIdentity, DeployedCell, Rat
from repro.core.columnar import RecordColumns
from repro.radio.environment import RadioEnvironment
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.records import (
    CellMeasurement,
    MeasurementReportRecord,
    MmStateRecord,
    RrcReconfigurationRecord,
    RrcSetupCompleteRecord,
    RrcSetupRecord,
    RrcSetupRequestRecord,
    ScellAddMod,
    SystemInfoRecord,
)

NR = Rat.NR
LTE = Rat.LTE


def nr_cell(pci: int, channel: int = 521310, x: float = 0.0, y: float = 0.0,
            power: float = 21.0, width: float = 90.0,
            margin: float = 0.0) -> DeployedCell:
    """A deployed 5G cell for hand-built environments."""
    return DeployedCell(identity=CellIdentity(pci, channel, NR),
                        site_xy_m=(x, y), tx_power_dbm=power,
                        channel_width_mhz=width, interference_margin_db=margin)


def lte_cell(pci: int, channel: int = 66661, x: float = 0.0, y: float = 0.0,
             power: float = 16.0, width: float = 20.0,
             margin: float = 0.0) -> DeployedCell:
    """A deployed 4G cell for hand-built environments."""
    return DeployedCell(identity=CellIdentity(pci, channel, LTE),
                        site_xy_m=(x, y), tx_power_dbm=power,
                        channel_width_mhz=width, interference_margin_db=margin)


@pytest.fixture
def propagation() -> PropagationModel:
    return PropagationModel(seed=42, path_loss_exponent=3.5,
                            shadowing_sigma_db=6.0, noise_floor_dbm=-118.0)


@pytest.fixture
def small_environment(propagation) -> RadioEnvironment:
    """Two n41 cells, two n25 cells on the problem channel, one LTE cell."""
    cells = [
        nr_cell(393, 521310, 100.0, 100.0),
        nr_cell(393, 501390, 100.0, 100.0, width=100.0),
        nr_cell(273, 387410, 100.0, 100.0, power=16.0, width=10.0),
        nr_cell(371, 387410, 500.0, 500.0, power=16.0, width=10.0),
        lte_cell(380, 66661, 100.0, 100.0),
    ]
    return RadioEnvironment(cells, propagation)


@pytest.fixture
def centre_point() -> Point:
    return Point(150.0, 150.0)


def cell_id(pci: int, channel: int, rat: Rat = NR) -> CellIdentity:
    return CellIdentity(pci, channel, rat)


def record_columns(records) -> RecordColumns:
    """The production record tables of a bare (time-ordered) record list."""
    return RecordColumns.from_trace(SignalingTrace(records=list(records)))


def make_sa_setup_records(t0: float = 0.0, pcell: CellIdentity | None = None):
    """The establishment triple plus system info, starting at t0."""
    pcell = pcell or cell_id(393, 521310)
    return [
        SystemInfoRecord(time_s=t0, cell=pcell, selection_threshold_dbm=-108.0),
        RrcSetupRequestRecord(time_s=t0 + 0.05, cell=pcell),
        RrcSetupRecord(time_s=t0 + 0.15, cell=pcell),
        RrcSetupCompleteRecord(time_s=t0 + 0.2, cell=pcell),
    ]


def make_s1e3_cycle(t0: float, pcell: CellIdentity, old_scell: CellIdentity,
                    new_scell: CellIdentity, scell_index: int = 1):
    """One S1E3 ON-OFF cycle: setup, SCell add, failing modification."""
    records = make_sa_setup_records(t0, pcell)
    records.append(RrcReconfigurationRecord(
        time_s=t0 + 3.0, pcell=pcell,
        scell_add_mod=(ScellAddMod(scell_index, old_scell),)))
    records.append(MeasurementReportRecord(
        time_s=t0 + 4.0, event="periodic",
        measurements=(
            CellMeasurement(pcell, -82.0, -10.5, is_serving=True),
            CellMeasurement(old_scell, -85.0, -12.0, is_serving=True),
            CellMeasurement(new_scell, -78.0, -10.0),
        )))
    records.append(RrcReconfigurationRecord(
        time_s=t0 + 5.0, pcell=pcell,
        scell_add_mod=(ScellAddMod(scell_index + 1, new_scell),),
        scell_release_indices=(scell_index,)))
    records.append(MmStateRecord(time_s=t0 + 5.2, state="DEREGISTERED",
                                 substate="NO_CELL_AVAILABLE"))
    return records


@pytest.fixture
def s1e3_trace() -> SignalingTrace:
    """A hand-crafted trace with two S1E3 cycles (a persistent loop)."""
    pcell = cell_id(393, 521310)
    old_scell = cell_id(273, 387410)
    new_scell = cell_id(371, 387410)
    trace = SignalingTrace(metadata=TraceMetadata(operator="OP_T", area="A1",
                                                  location="P16",
                                                  device="OnePlus 12R"))
    for record in make_s1e3_cycle(0.0, pcell, old_scell, new_scell):
        trace.append(record)
    for record in make_s1e3_cycle(16.0, pcell, old_scell, new_scell):
        trace.append(record)
    for record in make_sa_setup_records(32.0, pcell):
        trace.append(record)
    return trace
