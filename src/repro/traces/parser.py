"""Parse serialized signaling traces back into typed records.

This is the entry point of the analysis half: whether a trace was just
simulated in-process or loaded from a JSONL file on disk, the loop
pipeline consumes parsed :class:`~repro.traces.records.Record` objects
and nothing else.

Real captures are messy, so ingestion has two modes:

* ``errors="strict"`` (default) — the first malformed line raises a
  :class:`~repro.resilience.errors.TraceParseError` subclass carrying
  the line number and record kind.
* ``errors="recover"`` — malformed lines are quarantined into the
  returned :class:`~repro.resilience.ingest.ParseReport` and parsing
  continues, so a corrupt trace degrades to "every decodable record,
  plus an audit of what was skipped" instead of an exception.

A record is malformed when a field is missing or mistyped, when its
``kind`` is not a string, and when a number does not fit its field: a
non-finite time or float payload (``NaN``, ``±Infinity``, ``1e400``) or
an integer field given an infinite value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.obs import get_instrumentation
from repro.resilience.errors import (
    MalformedHeaderError,
    MalformedRecordError,
    OutOfOrderRecordError,
    TraceDecodeError,
    TraceParseError,
    UnknownRecordKindError,
)
from repro.resilience.ingest import ParseReport
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
    _decode_identity,
    _decode_optional_identity,
    finite_float,
)

__all__ = [
    "ParseResult",
    "TraceParseError",
    "parse_jsonl",
    "parse_metadata",
    "parse_record",
    "parse_trace",
]


def _parse_sys_info(t: float, data: dict) -> Record:
    return SystemInfoRecord(time_s=t, cell=_decode_identity(data["cell"]),
                            selection_threshold_dbm=finite_float(data["threshold"]))


def _parse_setup_request(t: float, data: dict) -> Record:
    return RrcSetupRequestRecord(time_s=t, cell=_decode_identity(data["cell"]))


def _parse_setup(t: float, data: dict) -> Record:
    return RrcSetupRecord(time_s=t, cell=_decode_identity(data["cell"]))


def _parse_setup_complete(t: float, data: dict) -> Record:
    return RrcSetupCompleteRecord(time_s=t, cell=_decode_identity(data["cell"]))


def _parse_meas_report(t: float, data: dict) -> Record:
    measurements = tuple(CellMeasurement.from_dict(m) for m in data["meas"])
    return MeasurementReportRecord(time_s=t, event=str(data["event"]),
                                   measurements=measurements)


def _parse_reconfiguration(t: float, data: dict) -> Record:
    return RrcReconfigurationRecord(
        time_s=t,
        pcell=_decode_identity(data["pcell"]),
        scell_add_mod=tuple(ScellAddMod.from_dict(e) for e in data["scell_add_mod"]),
        scell_release_indices=tuple(int(i) for i in data["scell_release"]),
        handover_target=_decode_optional_identity(data["handover"]),
        scg_pscell=_decode_optional_identity(data["scg_pscell"]),
        scg_scells=tuple(_decode_identity(c) for c in data["scg_scells"]),
        release_scg=bool(data["release_scg"]),
        meas_events=tuple((str(e[0]), int(e[1]), finite_float(e[2]))
                          for e in data["meas_events"]),
    )


def _parse_reconfiguration_complete(t: float, data: dict) -> Record:
    return RrcReconfigurationCompleteRecord(time_s=t,
                                            pcell=_decode_identity(data["pcell"]))


def _parse_scg_failure(t: float, data: dict) -> Record:
    return ScgFailureRecord(time_s=t, failure_type=str(data["failure_type"]))


def _parse_reestablishment_request(t: float, data: dict) -> Record:
    return RrcReestablishmentRequestRecord(
        time_s=t, cause=str(data["cause"]),
        cell=_decode_optional_identity(data.get("cell")))


def _parse_reestablishment_complete(t: float, data: dict) -> Record:
    return RrcReestablishmentCompleteRecord(time_s=t,
                                            cell=_decode_identity(data["cell"]))


def _parse_release(t: float, data: dict) -> Record:
    return RrcReleaseRecord(time_s=t)


def _parse_mm_state(t: float, data: dict) -> Record:
    return MmStateRecord(time_s=t, state=str(data["state"]),
                         substate=str(data.get("substate", "")))


def _parse_throughput(t: float, data: dict) -> Record:
    return ThroughputSampleRecord(time_s=t, mbps=finite_float(data["mbps"]))


_PARSERS = {
    "sys_info": _parse_sys_info,
    "rrc_setup_request": _parse_setup_request,
    "rrc_setup": _parse_setup,
    "rrc_setup_complete": _parse_setup_complete,
    "meas_report": _parse_meas_report,
    "rrc_reconfiguration": _parse_reconfiguration,
    "rrc_reconfiguration_complete": _parse_reconfiguration_complete,
    "scg_failure": _parse_scg_failure,
    "rrc_reestablishment_request": _parse_reestablishment_request,
    "rrc_reestablishment_complete": _parse_reestablishment_complete,
    "rrc_release": _parse_release,
    "mm_state": _parse_mm_state,
    "throughput": _parse_throughput,
}


def record_kinds() -> tuple[str, ...]:
    """All record kinds the parser knows (fault-injection test surface)."""
    return tuple(_PARSERS)


def parse_record(data: dict, *, line_number: int | None = None) -> Record:
    """Parse one decoded JSON object into a typed record.

    All malformed input — missing keys, wrong types, non-finite or
    overflowing numbers, undecodable nested structures — surfaces as a
    :class:`TraceParseError` subclass tagged with ``line_number`` and the
    record kind, never as a bare ``KeyError``/``TypeError``/``ValueError``
    /``OverflowError`` from a decoder.
    """
    kind = data.get("kind") if isinstance(data, dict) else None
    kind_label = kind if isinstance(kind, str) else "?"
    try:
        time_s = finite_float(data["t"])
        if not isinstance(kind, str):
            raise KeyError("kind")
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise MalformedRecordError(f"missing or malformed kind/time: {data!r}",
                                   line_number=line_number,
                                   record_kind=kind_label) from error
    parser = _PARSERS.get(kind)
    if parser is None:
        raise UnknownRecordKindError(f"unknown record kind {kind!r}",
                                     line_number=line_number,
                                     record_kind=kind_label)
    try:
        return parser(time_s, data)
    except (KeyError, TypeError, ValueError, IndexError,
            OverflowError) as error:
        raise MalformedRecordError(f"malformed {kind} record: {data!r}",
                                   line_number=line_number,
                                   record_kind=kind_label) from error


def parse_metadata(data: dict, *, line_number: int | None = None,
                   ) -> TraceMetadata:
    """Decode a ``{"meta": ...}`` payload (a trace header or a stream
    open) or raise :class:`MalformedHeaderError`."""
    try:
        return TraceMetadata.from_dict(data)
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as error:
        raise MalformedHeaderError(f"malformed meta header: {error}",
                                   line_number=line_number,
                                   record_kind="meta") from error


@dataclass
class ParseResult:
    """A parsed trace plus the ingestion accounting that produced it."""

    trace: SignalingTrace
    report: ParseReport


def _ingest_line(trace: SignalingTrace, report: ParseReport, stripped: str,
                 line_number: int) -> None:
    """Decode and apply one JSONL line, raising typed errors on failure."""
    try:
        data = json.loads(stripped)
    except (ValueError, RecursionError) as error:
        raise TraceDecodeError("invalid JSON", line_number=line_number,
                               record_kind="json") from error
    if not isinstance(data, dict):
        raise TraceDecodeError("expected a JSON object",
                               line_number=line_number, record_kind="json")
    if "meta" in data:
        trace.metadata = parse_metadata(data["meta"], line_number=line_number)
        report.header_parsed = True
        return
    record = parse_record(data, line_number=line_number)
    try:
        trace.append(record)
    except ValueError as error:
        raise OutOfOrderRecordError(str(error), line_number=line_number,
                                    record_kind=record.kind) from error
    report.record_success()


def parse_trace(text: str, errors: str = "strict") -> ParseResult:
    """Parse a JSONL trace into a :class:`ParseResult`.

    ``errors="strict"`` raises on the first malformed line;
    ``errors="recover"`` quarantines malformed lines into the report and
    keeps every record that decodes cleanly (records arriving out of
    time order are quarantined too, preserving the trace invariant).
    """
    if errors not in ("strict", "recover"):
        raise ValueError(f'errors must be "strict" or "recover", '
                         f'got {errors!r}')
    trace = SignalingTrace()
    report = ParseReport()
    obs = get_instrumentation()
    try:
        with obs.tracer.span("parse", errors=errors), \
                obs.registry.timer("stage_seconds", stage="parse"):
            for line_number, line in enumerate(text.splitlines(), start=1):
                report.total_lines += 1
                stripped = line.strip()
                if not stripped:
                    report.blank_lines += 1
                    continue
                try:
                    _ingest_line(trace, report, stripped, line_number)
                except TraceParseError as error:
                    if errors == "strict":
                        raise
                    report.record_error(error, stripped)
    finally:
        # Flush tallies even when strict mode raises mid-trace, so a
        # failed ingestion is still accountable in the metrics export.
        _flush_parse_metrics(obs, report)
    return ParseResult(trace=trace, report=report)


def _flush_parse_metrics(obs, report: ParseReport) -> None:
    """Report one ingestion's tallies into the metrics registry."""
    if report.quarantine and obs.events.enabled:
        obs.events.emit("parse.records_quarantined", severity="warning",
                        skipped=report.skipped_records,
                        total_lines=report.total_lines,
                        errors={cls: report.errors_by_class[cls]
                                for cls in sorted(report.errors_by_class)})
    if not obs.registry.enabled:
        return
    registry = obs.registry
    registry.counter("trace_lines_total").inc(report.total_lines)
    registry.counter("trace_records_parsed_total").inc(report.parsed_records)
    for error_class in sorted(report.errors_by_class):
        registry.counter("trace_records_skipped_total").inc(
            report.errors_by_class[error_class], error=error_class)


def parse_jsonl(text: str, errors: str = "strict") -> SignalingTrace:
    """Parse a JSONL trace (metadata header + records) into a SignalingTrace."""
    return parse_trace(text, errors=errors).trace
