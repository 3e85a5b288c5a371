"""Tests for the NSG-style textual log format (Appendix B fidelity)."""

import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import build_deployment, device, operator
from repro.campaign.locations import sparse_locations
from repro.campaign.runner import run_once
from repro.cells.cell import Rat
from repro.core.pipeline import analyze_trace
from repro.traces.log import SignalingTrace
from repro.traces.nsg_format import (
    NsgFormatError,
    parse_nsg_text,
    render_record,
    render_trace,
)
from repro.traces.records import ThroughputSampleRecord


class TestRendering:
    def test_trace_renders_appendix_style(self, s1e3_trace):
        text = render_trace(s1e3_trace)
        assert "RRC OTA Packet" in text
        assert "sCellToAddModList" in text
        assert "sCellToReleaseList" in text
        assert "MM5G State = DEREGISTERED" in text
        assert "Physical Cell ID = 393" in text
        assert "absoluteFrequencySSB 387410" in text

    def test_timestamps_are_wall_clock_style(self, s1e3_trace):
        text = render_trace(s1e3_trace)
        assert "00:00:03.000" in text  # the first SCell addition at t=3 s

    def test_throughput_records_are_omitted(self):
        assert render_record(ThroughputSampleRecord(time_s=1.0, mbps=9.0)) == []

    def test_header_carries_metadata(self, s1e3_trace):
        first_line = render_trace(s1e3_trace).splitlines()[0]
        assert first_line.startswith("# operator=OP_T")
        assert "location=P16" in first_line


class TestRoundTrip:
    def test_crafted_trace_round_trip(self, s1e3_trace):
        parsed = parse_nsg_text(render_trace(s1e3_trace))
        assert parsed.metadata.operator == "OP_T"
        assert parsed.metadata.location == "P16"
        assert len(parsed) == len(s1e3_trace)
        for original, round_tripped in zip(s1e3_trace.records, parsed.records):
            assert type(original) is type(round_tripped)
            assert round_tripped.time_s == pytest.approx(original.time_s,
                                                         abs=0.002)

    def test_analysis_agrees_after_round_trip(self, s1e3_trace):
        parsed = parse_nsg_text(render_trace(s1e3_trace))
        original = analyze_trace(s1e3_trace)
        reparsed = analyze_trace(parsed)
        assert reparsed.subtype == original.subtype
        assert reparsed.detection.kind == original.detection.kind
        assert reparsed.detection.period == original.detection.period

    def test_simulated_nsa_trace_round_trip(self):
        profile = operator("OP_V")
        deployment = build_deployment(profile, "A10")
        point = sparse_locations(profile.area_spec("A10").area, 5, seed=2)[1]
        result = run_once(deployment, profile, device("OnePlus 12R"), point,
                          "PV", 0, duration_s=200, keep_trace=True)
        parsed = parse_nsg_text(render_trace(result.trace))
        original = analyze_trace(result.trace)
        reparsed = analyze_trace(parsed)
        assert reparsed.detection.kind == original.detection.kind
        assert reparsed.subtype == original.subtype
        assert reparsed.serving_nr_channels == original.serving_nr_channels
        assert reparsed.serving_lte_channels == original.serving_lte_channels


class TestParserErrors:
    def test_unparseable_line(self):
        with pytest.raises(NsgFormatError):
            parse_nsg_text("this is not a log\n")

    def test_continuation_without_block(self):
        with pytest.raises(NsgFormatError):
            parse_nsg_text("  sCellToReleaseList {3}\n")

    def test_unknown_block_head(self):
        with pytest.raises(NsgFormatError):
            parse_nsg_text("00:00:01.000 RRC OTA Packet -- XX / Martian\n")

    def test_missing_cell_reference(self):
        text = "00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRC Setup Req\n"
        with pytest.raises(NsgFormatError):
            parse_nsg_text(text)

    def test_empty_text_gives_empty_trace(self):
        assert len(parse_nsg_text("")) == 0


@functools.cache
def rendered(operator_name: str) -> str:
    """One simulated 60 s run of ``operator_name``, rendered as NSG text."""
    profile = operator(operator_name)
    area = profile.areas[0].name
    point = sparse_locations(profile.area_spec(area).area, 1, seed=3)[0]
    result = run_once(build_deployment(profile, area), profile,
                      device("OnePlus 12R"), point, "P1", 0,
                      duration_s=60, keep_trace=True)
    return render_trace(result.trace)


def line_number_of(text: str, needle: str) -> int:
    return next(number for number, line
                in enumerate(text.splitlines(), start=1) if needle in line)


class TestMalformedFieldsRaiseFormatErrors:
    """Whatever the text, the parser returns a trace or raises
    :class:`NsgFormatError` naming a line — never a bare ``ValueError``
    from a record or cell constructor."""

    def test_out_of_range_pci_in_a_measurement(self):
        text = rendered("OP_T")
        target = next(line for line in text.splitlines()
                      if re.match(r"  \d+@\d+/\dG \(", line))
        bad = re.sub(r"^  \d+@", "  9929@", target)
        broken = text.replace(target, bad, 1)
        with pytest.raises(NsgFormatError,
                           match=r"line \d+: .*PCI 9929 outside 0..1007"):
            parse_nsg_text(broken)

    def test_integer_field_past_the_digit_limit(self):
        text = rendered("OP_A")
        target = next(line for line in text.splitlines()
                      if "Physical Cell ID = " in line)
        bad = re.sub(r"Freq = \d+", "Freq = " + "7" * 5000, target, count=1)
        broken = text.replace(target, bad, 1)
        number = line_number_of(broken, "7" * 5000) - 1  # the block head
        with pytest.raises(NsgFormatError, match=rf"^line {number}: "):
            parse_nsg_text(broken)

    @settings(max_examples=300, deadline=None)
    @given(operator_name=st.sampled_from(["OP_T", "OP_A"]), data=st.data())
    def test_mutated_trace_parses_or_raises_format_error(self,
                                                         operator_name,
                                                         data):
        lines = rendered(operator_name).splitlines()
        fragments = st.text(alphabet="0123456789 -.@/=:{},()#SGdBm",
                            max_size=12) \
            | st.integers(min_value=1000, max_value=10 ** 20).map(str) \
            | st.just("9" * 5000)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            index = data.draw(st.integers(0, len(lines) - 1))
            line = lines[index]
            mutation = data.draw(st.sampled_from(
                ["splice", "digits", "drop", "duplicate", "swap"]))
            if mutation == "splice":
                start = data.draw(st.integers(0, len(line)))
                end = data.draw(st.integers(start, len(line)))
                lines[index] = line[:start] + data.draw(fragments) \
                    + line[end:]
            elif mutation == "digits" and re.search(r"\d+", line):
                runs = list(re.finditer(r"\d+", line))
                run = data.draw(st.sampled_from(runs))
                lines[index] = line[:run.start()] + data.draw(fragments) \
                    + line[run.end():]
            elif mutation == "drop":
                del lines[index]
            elif mutation == "duplicate":
                lines.insert(index, line)
            elif mutation == "swap":
                other = data.draw(st.integers(0, len(lines) - 1))
                lines[index], lines[other] = lines[other], lines[index]
            if not lines:
                lines.append("")
        try:
            trace = parse_nsg_text("\n".join(lines) + "\n")
        except NsgFormatError as error:
            assert re.match(r"line \d+: ", str(error)), error
            return
        assert isinstance(trace, SignalingTrace)
