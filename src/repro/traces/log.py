"""The SignalingTrace container: an ordered run capture.

One :class:`SignalingTrace` corresponds to one experiment run (one
5-minute stationary speed test, or one walking/driving collection): a
time-ordered list of records plus run metadata (operator, area,
location, device, run seed).

:meth:`SignalingTrace.to_jsonl` writes each record as
``json.dumps(record.to_dict())``.  The two kinds that make up most of a
trace, measurement reports and throughput samples, are written by
per-kind encoders instead, which build the same text from cached
identity JSON.  They take only exact ``float`` finite numbers, ``bool``
flags and ``str`` events; any other value sends the record to
``json.dumps``, so the bytes never differ.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator, Type, TypeVar

from repro.traces.records import (
    CellMeasurement,
    MeasurementReportRecord,
    Record,
    ThroughputSampleRecord,
)

RecordT = TypeVar("RecordT", bound=Record)

_isfinite = math.isfinite


def _encode_meas_report(record: MeasurementReportRecord,
                        cell_json: Callable[[object], str]) -> str | None:
    time_s, event = record.time_s, record.event
    if type(time_s) is not float or not _isfinite(time_s) or type(event) is not str:
        return None
    parts = []
    for measurement in record.measurements:
        if type(measurement) is not CellMeasurement:
            return None
        rsrp, rsrq = measurement.rsrp_dbm, measurement.rsrq_db
        serving = measurement.is_serving
        if type(rsrp) is not float or type(rsrq) is not float \
                or not (_isfinite(rsrp) and _isfinite(rsrq)):
            return None
        if serving is True:
            flag = "true"
        elif serving is False:
            flag = "false"
        else:
            return None
        parts.append(f'{{"cell": {cell_json(measurement.identity)}, '
                     f'"rsrp": {round(rsrp, 2)!r}, "rsrq": {round(rsrq, 2)!r}, '
                     f'"serving": {flag}}}')
    return (f'{{"t": {round(time_s, 4)!r}, "kind": "meas_report", '
            f'"event": {encode_basestring_ascii(event)}, '
            f'"meas": [{", ".join(parts)}]}}')


def _encode_throughput(record: ThroughputSampleRecord,
                       cell_json: Callable[[object], str]) -> str | None:
    time_s, mbps = record.time_s, record.mbps
    if type(time_s) is not float or type(mbps) is not float \
            or not (_isfinite(time_s) and _isfinite(mbps)):
        return None
    return (f'{{"t": {round(time_s, 4)!r}, "kind": "throughput", '
            f'"mbps": {round(mbps, 3)!r}}}')


#: Per-kind encoders, by exact record type: each returns the record's
#: ``json.dumps(record.to_dict())`` text, or None for a value it does
#: not take.
_ENCODERS = {
    MeasurementReportRecord: _encode_meas_report,
    ThroughputSampleRecord: _encode_throughput,
}


@dataclass
class TraceMetadata:
    """Metadata identifying the run a trace came from."""

    operator: str = ""
    area: str = ""
    location: str = ""
    device: str = ""
    run_seed: int = 0
    mode: str = "stationary"

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "area": self.area,
            "location": self.location,
            "device": self.device,
            "run_seed": self.run_seed,
            "mode": self.mode,
        }

    @staticmethod
    def from_dict(data: dict) -> "TraceMetadata":
        return TraceMetadata(
            operator=str(data.get("operator", "")),
            area=str(data.get("area", "")),
            location=str(data.get("location", "")),
            device=str(data.get("device", "")),
            run_seed=int(data.get("run_seed", 0)),
            mode=str(data.get("mode", "stationary")),
        )


@dataclass
class SignalingTrace:
    """A time-ordered capture of one run."""

    metadata: TraceMetadata = field(default_factory=TraceMetadata)
    records: list[Record] = field(default_factory=list)

    def append(self, record: Record) -> None:
        """Append a record; timestamps must be non-decreasing."""
        if self.records and record.time_s < self.records[-1].time_s - 1e-9:
            raise ValueError(
                f"record at t={record.time_s} arrives before trace tail "
                f"t={self.records[-1].time_s}")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    @property
    def duration_s(self) -> float:
        if not self.records:
            return 0.0
        return self.records[-1].time_s - self.records[0].time_s

    def of_kind(self, record_type: Type[RecordT]) -> list[RecordT]:
        """All records of one type, in order."""
        return [record for record in self.records if isinstance(record, record_type)]

    def signaling_records(self) -> list[Record]:
        """All records except throughput samples (the RRC capture proper)."""
        return [record for record in self.records
                if not isinstance(record, ThroughputSampleRecord)]

    def throughput_series(self) -> list[tuple[float, float]]:
        """(time, Mbps) pairs of the throughput capture."""
        return [(record.time_s, record.mbps)
                for record in self.of_kind(ThroughputSampleRecord)]

    def to_jsonl(self) -> str:
        """Serialise to JSONL: one metadata header line, then one line per record."""
        # Identity JSON by object id: the records keep every identity
        # alive for the call, so an id cannot be reused within it.
        identity_json: dict[int, str] = {}

        def cell_json(identity) -> str:
            text = identity_json.get(id(identity))
            if text is None:
                text = identity_json[id(identity)] = json.dumps(
                    {"pci": identity.pci, "ch": identity.channel,
                     "rat": identity.rat.value})
            return text

        lines = [json.dumps({"meta": self.metadata.to_dict()})]
        for record in self.records:
            encode = _ENCODERS.get(type(record))
            line = None if encode is None else encode(record, cell_json)
            lines.append(json.dumps(record.to_dict()) if line is None else line)
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        """Write the trace to a JSONL file."""
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @staticmethod
    def load(path: str | Path, errors: str = "strict") -> "SignalingTrace":
        """Read a trace back from a JSONL file (see :mod:`repro.traces.parser`).

        ``errors="recover"`` skips malformed lines instead of raising;
        use :meth:`load_with_report` when the skip accounting matters.
        """
        return SignalingTrace.load_with_report(path, errors=errors).trace

    @staticmethod
    def load_with_report(path: str | Path, errors: str = "strict"):
        """Read a trace plus its :class:`~repro.resilience.ingest.ParseReport`."""
        from repro.traces.parser import parse_trace

        return parse_trace(Path(path).read_text(encoding="utf-8"),
                           errors=errors)
