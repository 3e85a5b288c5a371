"""Tests for the trace container and the JSONL parser."""

import pytest

from repro.cells.cell import CellIdentity, Rat
from repro.resilience.errors import MalformedHeaderError
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.parser import (
    TraceParseError,
    parse_jsonl,
    parse_record,
    parse_trace,
)
from repro.traces.records import (
    MeasurementReportRecord,
    RrcReleaseRecord,
    RrcSetupCompleteRecord,
    ThroughputSampleRecord,
)

PCELL = CellIdentity(393, 521310, Rat.NR)


class TestSignalingTrace:
    def test_append_enforces_time_order(self):
        trace = SignalingTrace()
        trace.append(RrcReleaseRecord(time_s=5.0))
        with pytest.raises(ValueError):
            trace.append(RrcReleaseRecord(time_s=4.0))

    def test_append_allows_equal_times(self):
        trace = SignalingTrace()
        trace.append(RrcReleaseRecord(time_s=5.0))
        trace.append(RrcReleaseRecord(time_s=5.0))
        assert len(trace) == 2

    def test_duration(self):
        trace = SignalingTrace()
        assert trace.duration_s == 0.0
        trace.append(RrcSetupCompleteRecord(time_s=1.0, cell=PCELL))
        trace.append(RrcReleaseRecord(time_s=11.0))
        assert trace.duration_s == pytest.approx(10.0)

    def test_of_kind(self):
        trace = SignalingTrace()
        trace.append(RrcSetupCompleteRecord(time_s=1.0, cell=PCELL))
        trace.append(ThroughputSampleRecord(time_s=1.5, mbps=100.0))
        assert len(trace.of_kind(ThroughputSampleRecord)) == 1
        assert len(trace.of_kind(MeasurementReportRecord)) == 0

    def test_signaling_records_excludes_throughput(self):
        trace = SignalingTrace()
        trace.append(ThroughputSampleRecord(time_s=0.5, mbps=10.0))
        trace.append(RrcReleaseRecord(time_s=1.0))
        assert all(not isinstance(record, ThroughputSampleRecord)
                   for record in trace.signaling_records())

    def test_throughput_series(self):
        trace = SignalingTrace()
        trace.append(ThroughputSampleRecord(time_s=0.5, mbps=10.0))
        trace.append(ThroughputSampleRecord(time_s=1.5, mbps=20.0))
        assert trace.throughput_series() == [(0.5, 10.0), (1.5, 20.0)]

    def test_iteration(self):
        trace = SignalingTrace()
        trace.append(RrcReleaseRecord(time_s=1.0))
        assert list(trace) == trace.records


class TestJsonlRoundTrip:
    def test_full_round_trip(self, s1e3_trace):
        text = s1e3_trace.to_jsonl()
        parsed = parse_jsonl(text)
        assert parsed.metadata.operator == "OP_T"
        assert parsed.metadata.location == "P16"
        assert len(parsed) == len(s1e3_trace)
        assert parsed.records == s1e3_trace.records

    def test_save_and_load(self, s1e3_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        s1e3_trace.save(path)
        loaded = SignalingTrace.load(path)
        assert loaded.records == s1e3_trace.records

    def test_blank_lines_ignored(self, s1e3_trace):
        text = s1e3_trace.to_jsonl().replace("\n", "\n\n")
        assert len(parse_jsonl(text)) == len(s1e3_trace)

    def test_metadata_defaults_when_missing(self):
        parsed = parse_jsonl('{"t": 0.0, "kind": "rrc_release"}\n')
        assert parsed.metadata.operator == ""
        assert len(parsed) == 1


class TestParserErrors:
    @pytest.mark.parametrize("line", [
        "{not json}",
        "1" * 5000,                 # past the int-conversion digit limit
        "[" * 100_000,              # nested past the recursion limit
    ], ids=["not-json", "huge-int", "deep-nesting"])
    def test_invalid_json_line(self, line):
        with pytest.raises(TraceParseError, match="invalid JSON"):
            parse_jsonl(line + "\n")

    @pytest.mark.parametrize("meta", [
        '{"run_seed": "x"}', '{"run_seed": 1e400}', '"not an object"'])
    def test_malformed_meta_header(self, meta):
        text = f'{{"meta": {meta}}}\n{{"t": 1.0, "kind": "rrc_release"}}\n'
        with pytest.raises(MalformedHeaderError):
            parse_jsonl(text)
        parsed = parse_trace(text, errors="recover")
        assert parsed.report.errors_by_class == {"MalformedHeaderError": 1}
        assert len(parsed.trace.records) == 1

    def test_missing_kind(self):
        with pytest.raises(TraceParseError):
            parse_record({"t": 1.0})

    def test_missing_time(self):
        with pytest.raises(TraceParseError):
            parse_record({"kind": "rrc_release"})

    def test_unknown_kind(self):
        with pytest.raises(TraceParseError, match="unknown record kind"):
            parse_record({"t": 1.0, "kind": "martian"})

    def test_malformed_payload(self):
        with pytest.raises(TraceParseError, match="malformed"):
            parse_record({"t": 1.0, "kind": "sys_info"})  # cell missing

    def test_malformed_measurement(self):
        with pytest.raises(TraceParseError):
            parse_record({"t": 1.0, "kind": "meas_report",
                          "event": "A3", "meas": [{"cell": {}}]})

    def test_non_numeric_time(self):
        with pytest.raises(TraceParseError):
            parse_record({"t": "later", "kind": "rrc_release"})


class TestTraceMetadata:
    def test_round_trip(self):
        metadata = TraceMetadata(operator="OP_V", area="A9", location="PV1",
                                 device="Pixel 5", run_seed=99, mode="walking")
        assert TraceMetadata.from_dict(metadata.to_dict()) == metadata

    def test_from_partial_dict(self):
        metadata = TraceMetadata.from_dict({"operator": "OP_A"})
        assert metadata.operator == "OP_A"
        assert metadata.mode == "stationary"
