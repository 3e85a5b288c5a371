"""Typed signaling-log records.

Each record mirrors one kind of line in a Network-Signal-Guru-style RRC
capture (see the paper's Appendix B, Figures 24-26 for raw examples):
RRC setup / reconfiguration / reestablishment messages, measurement
reports, SCG failure information, mobility-management state changes and
1 Hz throughput samples.

Every record is a frozen dataclass with a ``time_s`` timestamp and a
``kind`` tag used for JSONL round-tripping.  SCell bookkeeping follows
3GPP faithfully: ``sCellToAddModList`` entries carry an ``sCellIndex``
and ``sCellToReleaseList`` carries *indices only*, so the analysis side
must track the index->cell mapping exactly as the authors' scripts do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cells.cell import CellIdentity, Rat


@dataclass(frozen=True)
class CellMeasurement:
    """One cell's RSRP/RSRQ inside a measurement report."""

    identity: CellIdentity
    rsrp_dbm: float
    rsrq_db: float
    is_serving: bool = False

    def to_dict(self) -> dict:
        return {
            "cell": _encode_identity(self.identity),
            "rsrp": round(self.rsrp_dbm, 2),
            "rsrq": round(self.rsrq_db, 2),
            "serving": self.is_serving,
        }

    @staticmethod
    def from_dict(data: dict) -> "CellMeasurement":
        return CellMeasurement(
            identity=_decode_identity(data["cell"]),
            rsrp_dbm=finite_float(data["rsrp"]),
            rsrq_db=finite_float(data["rsrq"]),
            is_serving=bool(data.get("serving", False)),
        )


def finite_float(value) -> float:
    """``float(value)``, raising ``ValueError`` for NaN and ±infinity."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {value!r}")
    return number


def _encode_identity(identity: CellIdentity) -> dict:
    return {"pci": identity.pci, "ch": identity.channel, "rat": identity.rat.value}


def _decode_identity(data: dict) -> CellIdentity:
    rat = Rat.NR if data["rat"] == Rat.NR.value else Rat.LTE
    return CellIdentity(pci=int(data["pci"]), channel=int(data["ch"]), rat=rat)


def _encode_optional_identity(identity: CellIdentity | None) -> dict | None:
    return None if identity is None else _encode_identity(identity)


def _decode_optional_identity(data: dict | None) -> CellIdentity | None:
    return None if data is None else _decode_identity(data)


@dataclass(frozen=True)
class Record:
    """Base class: a timestamped signaling-log line."""

    time_s: float

    kind: str = field(default="record", init=False, repr=False)

    def payload(self) -> dict:
        """Subclass-specific fields (everything except time and kind)."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        data = {"t": round(self.time_s, 4), "kind": self.kind}
        data.update(self.payload())
        return data


@dataclass(frozen=True)
class SystemInfoRecord(Record):
    """MIB/SIB broadcast: cell-selection parameters from one cell."""

    cell: CellIdentity = None  # type: ignore[assignment]
    selection_threshold_dbm: float = -108.0

    kind: str = field(default="sys_info", init=False, repr=False)

    def payload(self) -> dict:
        return {
            "cell": _encode_identity(self.cell),
            "threshold": self.selection_threshold_dbm,
        }


@dataclass(frozen=True)
class RrcSetupRequestRecord(Record):
    """RRC Setup Request (5G) / RRC Connection Setup Request (4G)."""

    cell: CellIdentity = None  # type: ignore[assignment]

    kind: str = field(default="rrc_setup_request", init=False, repr=False)

    def payload(self) -> dict:
        return {"cell": _encode_identity(self.cell)}


@dataclass(frozen=True)
class RrcSetupRecord(Record):
    """RRC Setup / RRC Connection Setup (network -> UE)."""

    cell: CellIdentity = None  # type: ignore[assignment]

    kind: str = field(default="rrc_setup", init=False, repr=False)

    def payload(self) -> dict:
        return {"cell": _encode_identity(self.cell)}


@dataclass(frozen=True)
class RrcSetupCompleteRecord(Record):
    """RRC Setup Complete: the connection is established on ``cell``."""

    cell: CellIdentity = None  # type: ignore[assignment]

    kind: str = field(default="rrc_setup_complete", init=False, repr=False)

    def payload(self) -> dict:
        return {"cell": _encode_identity(self.cell)}


@dataclass(frozen=True)
class MeasurementReportRecord(Record):
    """UE -> network measurement report.

    ``event`` names the 3GPP trigger that produced the report ("A2",
    "A3", "A5", "B1") or "periodic" for the 1 Hz background samples the
    campaign collects (Table 3's tens of millions of RSRP/RSRQ points).
    """

    event: str = "periodic"
    measurements: tuple[CellMeasurement, ...] = ()

    kind: str = field(default="meas_report", init=False, repr=False)

    def payload(self) -> dict:
        return {
            "event": self.event,
            "meas": [m.to_dict() for m in self.measurements],
        }

    def measurement_of(self, identity: CellIdentity) -> CellMeasurement | None:
        for measurement in self.measurements:
            if measurement.identity == identity:
                return measurement
        return None


@dataclass(frozen=True)
class ScellAddMod:
    """One entry of sCellToAddModList: index + the cell it now maps to."""

    scell_index: int
    identity: CellIdentity

    def to_dict(self) -> dict:
        return {"idx": self.scell_index, "cell": _encode_identity(self.identity)}

    @staticmethod
    def from_dict(data: dict) -> "ScellAddMod":
        return ScellAddMod(scell_index=int(data["idx"]),
                           identity=_decode_identity(data["cell"]))


@dataclass(frozen=True)
class RrcReconfigurationRecord(Record):
    """RRC Reconfiguration (the workhorse message, TS 38.331 / 36.331).

    Field presence encodes the procedure, exactly as in Appendix B:

    * ``scell_add_mod`` / ``scell_release_indices`` — SCell add/mod/release.
    * ``handover_target`` — mobilityControlInfo: a PCell handover.
    * ``scg_pscell`` (+ ``scg_scells``) — spCellConfig: NSA SCG setup.
    * ``release_scg`` — SCG release after an SCG failure.
    * ``meas_events`` — measConfig: configured report triggers, as
      ``(event, channel, threshold_or_offset)`` triples.
    """

    pcell: CellIdentity = None  # type: ignore[assignment]
    scell_add_mod: tuple[ScellAddMod, ...] = ()
    scell_release_indices: tuple[int, ...] = ()
    handover_target: CellIdentity | None = None
    scg_pscell: CellIdentity | None = None
    scg_scells: tuple[CellIdentity, ...] = ()
    release_scg: bool = False
    meas_events: tuple[tuple[str, int, float], ...] = ()

    kind: str = field(default="rrc_reconfiguration", init=False, repr=False)

    def payload(self) -> dict:
        return {
            "pcell": _encode_identity(self.pcell),
            "scell_add_mod": [entry.to_dict() for entry in self.scell_add_mod],
            "scell_release": list(self.scell_release_indices),
            "handover": _encode_optional_identity(self.handover_target),
            "scg_pscell": _encode_optional_identity(self.scg_pscell),
            "scg_scells": [_encode_identity(c) for c in self.scg_scells],
            "release_scg": self.release_scg,
            "meas_events": [list(event) for event in self.meas_events],
        }

    @property
    def is_handover(self) -> bool:
        return self.handover_target is not None

    @property
    def adds_scg(self) -> bool:
        return self.scg_pscell is not None


@dataclass(frozen=True)
class RrcReconfigurationCompleteRecord(Record):
    """UE acknowledgement of a reconfiguration."""

    pcell: CellIdentity = None  # type: ignore[assignment]

    kind: str = field(default="rrc_reconfiguration_complete", init=False, repr=False)

    def payload(self) -> dict:
        return {"pcell": _encode_identity(self.pcell)}


@dataclass(frozen=True)
class ScgFailureRecord(Record):
    """SCGFailureInformation (UE -> network), e.g. randomAccessProblem."""

    failure_type: str = "randomAccessProblem"

    kind: str = field(default="scg_failure", init=False, repr=False)

    def payload(self) -> dict:
        return {"failure_type": self.failure_type}


@dataclass(frozen=True)
class RrcReestablishmentRequestRecord(Record):
    """RRC (Connection) Reestablishment Request with its cause.

    ``cause`` is ``"otherFailure"`` for a radio-link failure (N1E1) or
    ``"handoverFailure"`` for a failed handover (N1E2).
    """

    cause: str = "otherFailure"
    cell: CellIdentity | None = None

    kind: str = field(default="rrc_reestablishment_request", init=False, repr=False)

    def payload(self) -> dict:
        return {"cause": self.cause, "cell": _encode_optional_identity(self.cell)}


@dataclass(frozen=True)
class RrcReestablishmentCompleteRecord(Record):
    """Reestablishment complete on ``cell`` (the new PCell)."""

    cell: CellIdentity = None  # type: ignore[assignment]

    kind: str = field(default="rrc_reestablishment_complete", init=False, repr=False)

    def payload(self) -> dict:
        return {"cell": _encode_identity(self.cell)}


@dataclass(frozen=True)
class RrcReleaseRecord(Record):
    """RRC (Connection) Release: the connection is torn down to IDLE."""

    kind: str = field(default="rrc_release", init=False, repr=False)

    def payload(self) -> dict:
        return {}


@dataclass(frozen=True)
class MmStateRecord(Record):
    """Mobility-management state line (the only visible sign of the
    S1E3 exception: ``MM5G State = DEREGISTERED`` with substate
    ``NO_CELL_AVAILABLE``, Figure 26)."""

    state: str = "REGISTERED"
    substate: str = ""

    kind: str = field(default="mm_state", init=False, repr=False)

    def payload(self) -> dict:
        return {"state": self.state, "substate": self.substate}


@dataclass(frozen=True)
class ThroughputSampleRecord(Record):
    """One second of measured downlink throughput (tcpdump substitute)."""

    mbps: float = 0.0

    kind: str = field(default="throughput", init=False, repr=False)

    def payload(self) -> dict:
        return {"mbps": round(self.mbps, 3)}
