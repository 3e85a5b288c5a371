"""Serialize→corrupt→parse round-trip property suite.

For every record type and every fault kind: inject exactly one fault
into a serialized trace targeting a line of that record type, then
re-parse in ``errors="recover"`` mode.  Parsing must never raise, and
the :class:`ParseReport` tallies must reconcile exactly with the
injected fault.  A hypothesis sweep then checks the accounting
invariant under arbitrary seeded multi-fault corruption.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.cell import CellIdentity, Rat
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.parser import parse_trace, record_kinds
from repro.traces.records import (
    CellMeasurement,
    MeasurementReportRecord,
    MmStateRecord,
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
from tests.chaos.faults import FAULT_KINDS, FaultInjector

PCELL = CellIdentity(393, 521310, Rat.NR)
SCELL = CellIdentity(273, 387410, Rat.NR)


def _block(t0: float) -> list:
    """One instance of every record kind, times strictly increasing."""
    return [
        SystemInfoRecord(time_s=t0, cell=PCELL),
        RrcSetupRequestRecord(time_s=t0 + 0.1, cell=PCELL),
        RrcSetupRecord(time_s=t0 + 0.2, cell=PCELL),
        RrcSetupCompleteRecord(time_s=t0 + 0.3, cell=PCELL),
        MeasurementReportRecord(
            time_s=t0 + 1.0, event="A3",
            measurements=(CellMeasurement(PCELL, -80.0, -10.0, True),
                          CellMeasurement(SCELL, -90.0, -12.0))),
        RrcReconfigurationRecord(
            time_s=t0 + 2.0, pcell=PCELL,
            scell_add_mod=(ScellAddMod(1, SCELL),),
            scell_release_indices=(2,),
            meas_events=(("A3", 521310, 3.0),)),
        RrcReconfigurationCompleteRecord(time_s=t0 + 2.1, pcell=PCELL),
        ScgFailureRecord(time_s=t0 + 3.0),
        RrcReestablishmentRequestRecord(time_s=t0 + 3.5, cell=PCELL),
        RrcReestablishmentCompleteRecord(time_s=t0 + 3.8, cell=PCELL),
        MmStateRecord(time_s=t0 + 4.0, state="DEREGISTERED",
                      substate="NO_CELL_AVAILABLE"),
        ThroughputSampleRecord(time_s=t0 + 5.0, mbps=250.0),
        RrcReleaseRecord(time_s=t0 + 6.0),
    ]


@pytest.fixture(scope="module")
def all_kinds_text() -> str:
    trace = SignalingTrace(metadata=TraceMetadata(operator="OP_T", area="A1"))
    for record in _block(0.0) + _block(10.0):
        trace.append(record)
    assert {record.kind for record in trace.records} == set(record_kinds())
    return trace.to_jsonl()


def _lines_of_kind(text: str, kind: str, skip_first_record: bool) -> list[int]:
    """One-based line numbers of records of ``kind``; optionally exclude
    the trace's first record line (ineligible for reorder)."""
    numbers = []
    first_record_line = None
    for number, line in enumerate(text.splitlines(), start=1):
        data = json.loads(line)
        if "meta" in data:
            continue
        if first_record_line is None:
            first_record_line = number
        if data.get("kind") == kind:
            numbers.append(number)
    if skip_first_record and first_record_line in numbers:
        numbers.remove(first_record_line)
    return numbers


#: Per fault kind: (expected skipped lines, expected parsed-record delta).
EXPECTED = {
    "truncate": (1, -1),
    "drop": (0, -1),
    "duplicate": (0, +1),
    "reorder": (1, -1),
    "mangle": (1, -1),
}

#: Which error classes a fault kind may legitimately surface as.
EXPECTED_CLASSES = {
    "truncate": {"TraceDecodeError"},
    "reorder": {"OutOfOrderRecordError"},
    "mangle": {"MalformedRecordError", "UnknownRecordKindError"},
}


@pytest.mark.parametrize("fault", FAULT_KINDS)
@pytest.mark.parametrize("kind", record_kinds())
def test_recover_reconciles_per_record_and_fault(all_kinds_text, kind, fault):
    n_records = sum(1 for line in all_kinds_text.splitlines()
                    if "meta" not in json.loads(line))
    targets = _lines_of_kind(all_kinds_text, kind,
                             skip_first_record=(fault == "reorder"))
    assert targets, f"no eligible {kind} line for {fault}"
    injector = FaultInjector(seed=1234)
    corrupted, injection = injector.inject_one(all_kinds_text, fault,
                                               line_number=targets[-1])
    assert injection.counts() == {fault: 1}

    parsed = parse_trace(corrupted, errors="recover")  # must not raise
    report = parsed.report

    expected_skipped, expected_delta = EXPECTED[fault]
    assert report.skipped_records == expected_skipped
    assert report.parsed_records == n_records + expected_delta
    assert len(parsed.trace.records) == report.parsed_records
    if fault in EXPECTED_CLASSES:
        assert set(report.errors_by_class) <= EXPECTED_CLASSES[fault]
        assert sum(report.errors_by_class.values()) == 1
    if fault in ("reorder", "mangle"):
        # The quarantined line is attributed to the targeted record kind
        # (mangle may replace the kind tag itself, which then reads as
        # the mangled tag or a missing-kind record).
        quarantined = report.quarantine[0]
        assert quarantined.line_number == injection.events[0].line_number
    # The strict invariant: every presented record line was either
    # parsed or quarantined.
    assert report.parsed_records + report.skipped_records \
        == n_records + (1 if fault == "duplicate" else 0) \
        - (1 if fault == "drop" else 0)


def test_reorder_quarantine_names_target_kind(all_kinds_text):
    targets = _lines_of_kind(all_kinds_text, "mm_state",
                             skip_first_record=True)
    corrupted, _ = FaultInjector(seed=0).inject_one(
        all_kinds_text, "reorder", line_number=targets[0])
    report = parse_trace(corrupted, errors="recover").report
    assert report.errors_by_kind == {"mm_state": 1}
    assert report.quarantine[0].record_kind == "mm_state"


def test_strict_mode_raises_on_every_breaking_fault(all_kinds_text):
    from repro.resilience.errors import TraceParseError

    for fault in ("truncate", "reorder", "mangle"):
        corrupted, _ = FaultInjector(seed=7).inject_one(all_kinds_text, fault)
        with pytest.raises(TraceParseError):
            parse_trace(corrupted, errors="strict")


def test_invalid_errors_mode_rejected(all_kinds_text):
    with pytest.raises(ValueError, match="strict"):
        parse_trace(all_kinds_text, errors="lenient")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), rate=st.floats(0.0, 0.6))
def test_recover_accounting_invariant_under_any_corruption(seed, rate):
    """parsed + skipped == record lines presented, for any seeded faults."""
    trace = SignalingTrace(metadata=TraceMetadata(operator="OP_V"))
    for record in _block(0.0) + _block(10.0):
        trace.append(record)
    text = trace.to_jsonl()
    n_records = len(trace.records)

    corrupted, injection = FaultInjector(seed=seed, rate=rate).corrupt(text)
    parsed = parse_trace(corrupted, errors="recover")  # must not raise

    counts = injection.counts()
    presented = n_records - counts.get("drop", 0) + counts.get("duplicate", 0)
    report = parsed.report
    assert report.parsed_records + report.skipped_records == presented
    assert len(parsed.trace.records) == report.parsed_records
    # Corruption never invents records the clean trace didn't have.
    assert report.parsed_records <= n_records + counts.get("duplicate", 0)


@pytest.fixture(scope="module")
def simulated_text(tmp_path_factory) -> str:
    """``repro simulate --operator OP_T --duration 60``: an S1E3 loop."""
    from repro.cli import main

    path = tmp_path_factory.mktemp("simulate") / "run.jsonl"
    assert main(["simulate", "--operator", "OP_T", "--duration", "60",
                 "--out", str(path)]) == 0
    return path.read_text(encoding="utf-8")


#: One edited line each: (marker of the first line to edit, field, the
#: raw JSON its value becomes).  Non-string kinds and non-finite or
#: overflowing numbers used to crash the parser (unhashable kind,
#: ``int(inf)``), crash the analysis (NaN throughput time) or quarantine
#: the rest of the trace (an infinite time sets the ordering watermark).
CORRUPT_LINE_REPROS = {
    "kind-list": ('"kind": "throughput"', "kind", "[]"),
    "kind-dict": ('"kind": "throughput"', "kind", "{}"),
    "pci-1e400": ('"kind": "sys_info"', "pci", "1e400"),
    "nan-time-throughput": ('"kind": "throughput"', "t", "NaN"),
    "nan-string-time-state": ('"state": "DEREGISTERED"', "t", '"nan"'),
    "infinite-time-throughput": ('"kind": "throughput"', "t", "Infinity"),
}


@pytest.mark.parametrize("repro", sorted(CORRUPT_LINE_REPROS))
def test_corrupt_field_costs_exactly_its_own_line(simulated_text, repro):
    from repro.core.pipeline import analyze_trace
    from repro.resilience.errors import MalformedRecordError

    marker, field, raw = CORRUPT_LINE_REPROS[repro]
    lines = simulated_text.splitlines()
    index = next(number for number, line in enumerate(lines)
                 if marker in line)
    edited = re.sub(rf'"{field}": ("[^"]*"|[^,}}]+)', f'"{field}": {raw}',
                    lines[index], count=1)
    assert edited != lines[index]
    corrupted = "\n".join(lines[:index] + [edited] + lines[index + 1:])

    with pytest.raises(MalformedRecordError):
        parse_trace(corrupted, errors="strict")
    parsed = parse_trace(corrupted, errors="recover")
    assert parsed.report.skipped_records == 1
    assert parsed.report.errors_by_class == {"MalformedRecordError": 1}
    # The rest of the trace is analysed: the clean trace minus that line.
    clean = parse_trace(simulated_text).trace
    del clean.records[index - 1]  # line 0 is the meta header
    assert parsed.trace.records == clean.records
    assert analyze_trace(parsed.trace) == analyze_trace(clean)
