"""Network-Signal-Guru-style textual log rendering and parsing.

The paper's raw captures (Appendix B, Figures 24-26) look like::

    19:43:31.635 NR5G RRC OTA Packet -- BCCH_BCH / MIB
      Physical Cell ID = 393, Freq = 521310, ...
    19:43:34.361 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration
      sCellToAddModList {sCellIndex 1, physCellId 273, absoluteFrequencySSB 387410}
      sCellToReleaseList {3}

This module renders a :class:`~repro.traces.log.SignalingTrace` into
that textual form and parses it back into typed records, so the
analysis pipeline can be pointed at NSG-like text exactly the way the
paper's released scripts are.  The JSONL format remains the canonical
round-trip format; the NSG text covers the RRC-visible subset (it does
not carry throughput samples, which NSG never logged either).
"""

from __future__ import annotations

import re

from repro.cells.cell import CellIdentity, Rat
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.records import (
    CellMeasurement,
    MeasurementReportRecord,
    MmStateRecord,
    Record,
    RrcReconfigurationCompleteRecord,
    RrcReconfigurationRecord,
    RrcReestablishmentCompleteRecord,
    RrcReestablishmentRequestRecord,
    RrcReleaseRecord,
    RrcSetupCompleteRecord,
    RrcSetupRecord,
    RrcSetupRequestRecord,
    ScellAddMod,
    ScgFailureRecord,
    SystemInfoRecord,
    ThroughputSampleRecord,
)


class NsgFormatError(ValueError):
    """Raised on malformed NSG-style text; the message starts with the
    number of the offending line (a block's head line for a bad field
    inside the block)."""


def _timestamp(time_s: float) -> str:
    hours = int(time_s // 3600) % 24
    minutes = int(time_s // 60) % 60
    seconds = time_s % 60.0
    return f"{hours:02d}:{minutes:02d}:{seconds:06.3f}"


def _parse_timestamp(text: str) -> float:
    match = re.match(r"^(\d{2}):(\d{2}):(\d{2}\.\d{3})$", text)
    if match is None:
        raise NsgFormatError(f"bad timestamp {text!r}")
    return int(match.group(1)) * 3600 + int(match.group(2)) * 60 \
        + float(match.group(3))


def _rat_prefix(rat: Rat) -> str:
    return "NR5G" if rat is Rat.NR else "LTE"


def _cell_ref(identity: CellIdentity) -> str:
    return (f"Physical Cell ID = {identity.pci}, Freq = {identity.channel}, "
            f"RAT = {identity.rat.value}")


_CELL_REF_RE = re.compile(
    r"Physical Cell ID = (?P<pci>\d+), Freq = (?P<channel>\d+), "
    r"RAT = (?P<rat>\dG)")


def _parse_cell_ref(text: str) -> CellIdentity:
    match = _CELL_REF_RE.search(text)
    if match is None:
        raise NsgFormatError(f"no cell reference in {text!r}")
    rat = Rat.NR if match.group("rat") == "5G" else Rat.LTE
    return CellIdentity(int(match.group("pci")), int(match.group("channel")),
                        rat)


def render_record(record: Record) -> list[str]:
    """Render one record as NSG-style lines (empty for throughput)."""
    stamp = _timestamp(record.time_s)
    if isinstance(record, SystemInfoRecord):
        prefix = _rat_prefix(record.cell.rat)
        return [f"{stamp} {prefix} RRC OTA Packet -- BCCH_DL_SCH / "
                f"SystemInformationBlockType1",
                f"  {_cell_ref(record.cell)}, "
                f"q-RxLevMin = {record.selection_threshold_dbm:.0f}"]
    if isinstance(record, RrcSetupRequestRecord):
        return [f"{stamp} {_rat_prefix(record.cell.rat)} RRC OTA Packet -- "
                f"UL_CCCH / RRC Setup Req",
                f"  {_cell_ref(record.cell)}"]
    if isinstance(record, RrcSetupRecord):
        return [f"{stamp} {_rat_prefix(record.cell.rat)} RRC OTA Packet -- "
                f"DL_CCCH / RRC Setup",
                f"  {_cell_ref(record.cell)}"]
    if isinstance(record, RrcSetupCompleteRecord):
        return [f"{stamp} {_rat_prefix(record.cell.rat)} RRC OTA Packet -- "
                f"UL_DCCH / RRCSetup Complete",
                f"  {_cell_ref(record.cell)}"]
    if isinstance(record, MeasurementReportRecord):
        lines = [f"{stamp} RRC OTA Packet -- UL_DCCH / MeasurementReport "
                 f"(event {record.event})"]
        for measurement in record.measurements:
            role = "serving" if measurement.is_serving else "candidate"
            lines.append(f"  {measurement.identity.pci}@"
                         f"{measurement.identity.channel}"
                         f"/{measurement.identity.rat.value} ({role}): "
                         f"{measurement.rsrp_dbm:.1f}dBm "
                         f"{measurement.rsrq_db:.1f}dB")
        return lines
    if isinstance(record, RrcReconfigurationRecord):
        lines = [f"{stamp} {_rat_prefix(record.pcell.rat)} RRC OTA Packet -- "
                 f"DL_DCCH / RRCReconfiguration",
                 f"  {_cell_ref(record.pcell)}"]
        if record.scell_add_mod:
            entries = ", ".join(
                f"{{sCellIndex {entry.scell_index}, physCellId "
                f"{entry.identity.pci}, absoluteFrequencySSB "
                f"{entry.identity.channel}}}"
                for entry in record.scell_add_mod)
            lines.append(f"  sCellToAddModList {entries}")
        if record.scell_release_indices:
            indices = ", ".join(str(i) for i in record.scell_release_indices)
            lines.append(f"  sCellToReleaseList {{{indices}}}")
        if record.handover_target is not None:
            lines.append(f"  mobilityControlInfo targetPhysCellId "
                         f"{record.handover_target.pci} targetFreq "
                         f"{record.handover_target.channel}")
        if record.scg_pscell is not None:
            partners = " ".join(f"{c.pci}@{c.channel}"
                                for c in record.scg_scells)
            lines.append(f"  spCellConfig physCellId {record.scg_pscell.pci} "
                         f"freq {record.scg_pscell.channel}"
                         + (f" scells {partners}" if partners else ""))
        if record.release_scg:
            lines.append("  scg-ToReleaseList present")
        for event, channel, value in record.meas_events:
            lines.append(f"  measConfig event {event} on {channel} "
                         f"threshold {value:.1f}")
        return lines
    if isinstance(record, RrcReconfigurationCompleteRecord):
        return [f"{stamp} {_rat_prefix(record.pcell.rat)} RRC OTA Packet -- "
                f"UL_DCCH / RRCReconfiguration Complete",
                f"  {_cell_ref(record.pcell)}"]
    if isinstance(record, ScgFailureRecord):
        return [f"{stamp} RRC OTA Packet -- UL_DCCH / SCGFailureInformation",
                f"  failureType = {record.failure_type}"]
    if isinstance(record, RrcReestablishmentRequestRecord):
        lines = [f"{stamp} RRC OTA Packet -- UL_CCCH / "
                 f"RRCReestablishmentRequest",
                 f"  reestablishmentCause = {record.cause}"]
        if record.cell is not None:
            lines.append(f"  {_cell_ref(record.cell)}")
        return lines
    if isinstance(record, RrcReestablishmentCompleteRecord):
        return [f"{stamp} RRC OTA Packet -- UL_DCCH / "
                f"RRCReestablishmentComplete",
                f"  {_cell_ref(record.cell)}"]
    if isinstance(record, RrcReleaseRecord):
        return [f"{stamp} RRC OTA Packet -- DL_DCCH / RRCRelease"]
    if isinstance(record, MmStateRecord):
        lines = [f"{stamp} MM5G State = {record.state}"]
        if record.substate:
            lines.append(f"  Mm5g Deregistered Substate = {record.substate}")
        return lines
    if isinstance(record, ThroughputSampleRecord):
        return []  # NSG never logged throughput
    raise NsgFormatError(f"unknown record type {type(record).__name__}")


def render_trace(trace: SignalingTrace) -> str:
    """Render a whole trace as NSG-style text (with a metadata header)."""
    lines = [f"# operator={trace.metadata.operator} "
             f"area={trace.metadata.area} location={trace.metadata.location} "
             f"device={trace.metadata.device} run_seed={trace.metadata.run_seed}"]
    for record in trace.records:
        lines.extend(render_record(record))
    return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(
    r"^# operator=(?P<operator>\S*) area=(?P<area>\S*) "
    r"location=(?P<location>\S*) device=(?P<device>.*?) "
    r"run_seed=(?P<seed>\d{1,20})$")
_STAMP_RE = re.compile(r"^(\d{2}:\d{2}:\d{2}\.\d{3}) (.*)$")
_MEAS_LINE_RE = re.compile(
    r"^(?P<pci>\d+)@(?P<channel>\d+)/(?P<rat>\dG) \((?P<role>\w+)\): "
    r"(?P<rsrp>-?\d+\.\d)dBm (?P<rsrq>-?\d+\.\d)dB$")
_SCELL_ENTRY_RE = re.compile(
    r"\{sCellIndex (\d+), physCellId (\d+), absoluteFrequencySSB (\d+)\}")


def _parse_block(time_s: float, head: str, body: list[str]) -> Record | None:
    """Parse one timestamped block into a record (None for ignorable)."""
    is_nr = head.startswith("NR5G")

    def cell() -> CellIdentity:
        for line in body:
            if "Physical Cell ID" in line:
                return _parse_cell_ref(line)
        raise NsgFormatError(f"no cell in block {head!r}")

    if "SystemInformationBlockType1" in head:
        threshold = -108.0
        for line in body:
            match = re.search(r"q-RxLevMin = (-?\d+)", line)
            if match:
                threshold = float(match.group(1))
        return SystemInfoRecord(time_s=time_s, cell=cell(),
                                selection_threshold_dbm=threshold)
    if "RRC Setup Req" in head:
        return RrcSetupRequestRecord(time_s=time_s, cell=cell())
    if "/ RRC Setup" in head:
        return RrcSetupRecord(time_s=time_s, cell=cell())
    if "RRCSetup Complete" in head:
        return RrcSetupCompleteRecord(time_s=time_s, cell=cell())
    if "MeasurementReport" in head:
        event_match = re.search(r"\(event (\w+)\)", head)
        event = event_match.group(1) if event_match else "periodic"
        measurements = []
        for line in body:
            match = _MEAS_LINE_RE.match(line)
            if match is None:
                continue
            rat = Rat.NR if match.group("rat") == "5G" else Rat.LTE
            measurements.append(CellMeasurement(
                CellIdentity(int(match.group("pci")),
                             int(match.group("channel")), rat),
                float(match.group("rsrp")), float(match.group("rsrq")),
                is_serving=match.group("role") == "serving"))
        return MeasurementReportRecord(time_s=time_s, event=event,
                                       measurements=tuple(measurements))
    if "/ RRCReconfiguration Complete" in head:
        return RrcReconfigurationCompleteRecord(time_s=time_s, pcell=cell())
    if "/ RRCReconfiguration" in head:
        pcell = cell()
        rat = Rat.NR if is_nr else Rat.LTE
        add_mod: list[ScellAddMod] = []
        release: tuple[int, ...] = ()
        handover = None
        scg_pscell = None
        scg_scells: tuple[CellIdentity, ...] = ()
        release_scg = False
        meas_events: list[tuple[str, int, float]] = []
        for line in body:
            if line.startswith("sCellToAddModList"):
                for index, pci, channel in _SCELL_ENTRY_RE.findall(line):
                    add_mod.append(ScellAddMod(
                        int(index), CellIdentity(int(pci), int(channel), rat)))
            elif line.startswith("sCellToReleaseList"):
                release = tuple(int(v) for v in re.findall(r"\d+", line))
            elif line.startswith("mobilityControlInfo"):
                match = re.search(r"targetPhysCellId (\d+) targetFreq (\d+)",
                                  line)
                if match:
                    handover = CellIdentity(int(match.group(1)),
                                            int(match.group(2)), rat)
            elif line.startswith("spCellConfig"):
                match = re.search(r"physCellId (\d+) freq (\d+)", line)
                if match:
                    scg_pscell = CellIdentity(int(match.group(1)),
                                              int(match.group(2)), Rat.NR)
                partner_match = re.search(r"scells (.+)$", line)
                if partner_match:
                    partners = []
                    for token in partner_match.group(1).split():
                        pci, channel = token.split("@")
                        partners.append(CellIdentity(int(pci), int(channel),
                                                     Rat.NR))
                    scg_scells = tuple(partners)
            elif line.startswith("scg-ToReleaseList"):
                release_scg = True
            elif line.startswith("measConfig"):
                match = re.search(r"event (\w+) on (\d+) threshold (-?\d+\.\d)",
                                  line)
                if match:
                    meas_events.append((match.group(1), int(match.group(2)),
                                        float(match.group(3))))
        return RrcReconfigurationRecord(
            time_s=time_s, pcell=pcell, scell_add_mod=tuple(add_mod),
            scell_release_indices=release, handover_target=handover,
            scg_pscell=scg_pscell, scg_scells=scg_scells,
            release_scg=release_scg, meas_events=tuple(meas_events))
    if "SCGFailureInformation" in head:
        failure_type = "randomAccessProblem"
        for line in body:
            match = re.search(r"failureType = (\w+)", line)
            if match:
                failure_type = match.group(1)
        return ScgFailureRecord(time_s=time_s, failure_type=failure_type)
    if "RRCReestablishmentRequest" in head:
        cause = "otherFailure"
        cell_ref = None
        for line in body:
            match = re.search(r"reestablishmentCause = (\w+)", line)
            if match:
                cause = match.group(1)
            if "Physical Cell ID" in line:
                cell_ref = _parse_cell_ref(line)
        return RrcReestablishmentRequestRecord(time_s=time_s, cause=cause,
                                               cell=cell_ref)
    if "RRCReestablishmentComplete" in head:
        return RrcReestablishmentCompleteRecord(time_s=time_s, cell=cell())
    if "RRCRelease" in head:
        return RrcReleaseRecord(time_s=time_s)
    if head.startswith("MM5G State"):
        _, equals, state = head.partition("=")
        if not equals:
            raise NsgFormatError(f"no state in {head!r}")
        state = state.strip()
        substate = ""
        for line in body:
            match = re.search(r"Substate = (\w+)", line)
            if match:
                substate = match.group(1)
        return MmStateRecord(time_s=time_s, state=state, substate=substate)
    raise NsgFormatError(f"unrecognised block head {head!r}")


def parse_nsg_text(text: str) -> SignalingTrace:
    """Parse NSG-style text back into a SignalingTrace.

    Raises :class:`NsgFormatError` — and nothing else — for any text
    that is not a well-formed rendering: a field a record or cell
    cannot hold (a PCI outside 0..1007, an integer past the digit
    limit) and a block that goes back in time included.
    """
    trace = SignalingTrace()
    current: tuple[float, str, list[str]] | None = None
    block_line = 0

    def flush() -> None:
        if current is None:
            return
        try:
            record = _parse_block(*current)
            if record is not None:
                trace.append(record)
        except ValueError as error:
            raise NsgFormatError(f"line {block_line}: {error}") from error

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        header = _HEADER_RE.match(line)
        if header is not None:
            trace.metadata = TraceMetadata(
                operator=header.group("operator"),
                area=header.group("area"),
                location=header.group("location"),
                device=header.group("device"),
                run_seed=int(header.group("seed")))
            continue
        stamped = _STAMP_RE.match(line)
        if stamped is not None:
            flush()
            hours_time = _parse_timestamp(stamped.group(1))
            current = (hours_time, stamped.group(2), [])
            block_line = line_number
        elif line.startswith("  "):
            if current is None:
                raise NsgFormatError(
                    f"line {line_number}: continuation without a block")
            current[2].append(line.strip())
        else:
            raise NsgFormatError(f"line {line_number}: unparseable {line!r}")
    flush()
    return trace
