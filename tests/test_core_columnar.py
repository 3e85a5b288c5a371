"""Property tests: the production analysis stages ≡ the per-record oracles.

Production computes every stage past loop detection over the columnar
tables (``repro.core.columnar``); the per-record reference
implementations live in ``tests/oracles/analysis.py``.  These tests
drive both sides with random traces — including same-timestamp record
bursts, reports before the first interval, throughput samples
straddling the timeline, and interval lists with gaps — and require
*bit-identical* results, field by field.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cells.cell import CellIdentity, Rat
from repro.core.cellset import (
    CellSet,
    CellSetInterval,
    extract_cellset_sequence,
    five_g_timeline,
)
from repro.core.classify import LoopSubtype, classify_loop
from repro.core.columnar import IntervalColumns, RecordColumns
from repro.core.loops import detect_loop
from repro.core.metrics import (
    RunPerformance,
    _median,
    loop_cycles,
    run_performance,
    scg_measurement_delays,
)
from repro.core.pipeline import (
    RunAnalysis,
    _collect_measurement_stats,
    _scell_modification_outcomes,
    analyze_trace,
)
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.records import (
    CellMeasurement,
    MeasurementReportRecord,
    MmStateRecord,
    RrcReconfigurationRecord,
    RrcReestablishmentRequestRecord,
    RrcReleaseRecord,
    RrcSetupCompleteRecord,
    ScellAddMod,
    ScgFailureRecord,
    ThroughputSampleRecord,
)
from tests.oracles import analysis as oracle

identities = st.builds(
    CellIdentity,
    pci=st.integers(min_value=0, max_value=30),
    channel=st.sampled_from([387410, 521310, 632736, 5145, 66661]),
    rat=st.sampled_from([Rat.NR, Rat.LTE]),
)

measurements = st.builds(
    CellMeasurement,
    identity=identities,
    rsrp_dbm=st.floats(min_value=-140.0, max_value=-40.0)
    .map(lambda v: round(v, 2)),
    rsrq_db=st.floats(min_value=-30.0, max_value=-5.0)
    .map(lambda v: round(v, 2)),
    is_serving=st.booleans(),
)


def _record_strategies(time):
    return st.one_of(
        st.builds(RrcSetupCompleteRecord, time_s=time, cell=identities),
        st.builds(RrcReleaseRecord, time_s=time),
        st.builds(MmStateRecord, time_s=time,
                  state=st.sampled_from(["REGISTERED", "DEREGISTERED"])),
        st.builds(ScgFailureRecord, time_s=time,
                  failure_type=st.sampled_from(["randomAccessProblem",
                                                "rlf"])),
        st.builds(RrcReestablishmentRequestRecord, time_s=time,
                  cause=st.sampled_from(["otherFailure", "handoverFailure"]),
                  cell=st.one_of(st.none(), identities)),
        st.builds(MeasurementReportRecord, time_s=time,
                  event=st.sampled_from(["periodic", "A3", "B1"]),
                  measurements=st.lists(measurements, min_size=1,
                                        max_size=3).map(tuple)),
        st.builds(RrcReconfigurationRecord, time_s=time, pcell=identities,
                  scell_add_mod=st.lists(
                      st.builds(ScellAddMod,
                                scell_index=st.integers(1, 8),
                                identity=identities),
                      max_size=2).map(tuple),
                  scell_release_indices=st.lists(st.integers(1, 8),
                                                 max_size=2).map(tuple),
                  handover_target=st.one_of(st.none(), identities),
                  scg_pscell=st.one_of(st.none(), identities),
                  release_scg=st.booleans()),
        st.builds(ThroughputSampleRecord, time_s=time,
                  mbps=st.floats(min_value=0.0, max_value=500.0)
                  .map(lambda v: round(v, 3))),
    )


@st.composite
def traces(draw):
    """Random traces on a coarse half-second grid.

    The grid makes same-timestamp record bursts common (the zero-width
    interval edge case), and because reports can land before the first
    RRC setup, pre-timeline measurement reports occur naturally.
    """
    count = draw(st.integers(min_value=0, max_value=30))
    times = sorted(draw(st.integers(min_value=0, max_value=80)) / 2.0
                   for _ in range(count))
    trace = SignalingTrace(metadata=TraceMetadata(
        operator="PROP", area="A1", location="P1"))
    for time in times:
        trace.append(draw(_record_strategies(st.just(time))))
    return trace


def _columns(trace):
    rcolumns = RecordColumns.from_trace(trace)
    end_time = trace.records[-1].time_s if trace.records else 0.0
    intervals = extract_cellset_sequence(rcolumns.signaling,
                                         end_time_s=end_time)
    return rcolumns, intervals, IntervalColumns.from_intervals(intervals)


def _blank_analysis(intervals) -> RunAnalysis:
    return RunAnalysis(
        metadata=TraceMetadata(), intervals=intervals,
        detection=detect_loop(intervals), subtype=LoopSubtype.UNKNOWN,
        transitions=[], cycles=[], performance=RunPerformance(),
        scg_meas_delays=[], scell_mods=[])


@given(traces())
@settings(max_examples=60, deadline=None)
def test_run_performance_matches_oracle(trace):
    rcolumns, intervals, icolumns = _columns(trace)
    expected = oracle.run_performance(intervals, trace.throughput_series())
    actual = run_performance(rcolumns, icolumns)
    assert actual == expected


@given(traces(), st.one_of(st.none(), st.tuples(
    st.integers(0, 80).map(lambda v: v / 2.0),
    st.integers(0, 80).map(lambda v: v / 2.0))))
@settings(max_examples=60, deadline=None)
def test_loop_cycles_matches_oracle(trace, window):
    _, intervals, icolumns = _columns(trace)
    assert loop_cycles(icolumns, window) == \
        oracle.loop_cycles(intervals, window)


@given(traces())
@settings(max_examples=60, deadline=None)
def test_classify_loop_matches_oracle(trace):
    rcolumns, intervals, icolumns = _columns(trace)
    expected = oracle.classify_loop(rcolumns.signaling, intervals)
    actual = classify_loop(rcolumns, icolumns)
    assert actual == expected


@given(traces())
@settings(max_examples=60, deadline=None)
def test_scg_delays_and_scell_outcomes_match_oracles(trace):
    rcolumns, _, _ = _columns(trace)
    assert scg_measurement_delays(rcolumns) == \
        oracle.scg_measurement_delays(rcolumns.signaling)
    assert _scell_modification_outcomes(rcolumns) == \
        oracle._scell_modification_outcomes(rcolumns.signaling)


@given(traces())
@settings(max_examples=60, deadline=None)
def test_collect_measurement_stats_matches_oracle(trace):
    rcolumns, intervals, icolumns = _columns(trace)
    expected = _blank_analysis(intervals)
    oracle._collect_measurement_stats(rcolumns.signaling, expected)
    actual = _blank_analysis(intervals)
    _collect_measurement_stats(rcolumns, icolumns, actual)
    assert actual.observed_cells == expected.observed_cells
    assert actual.n_rsrp_samples == expected.n_rsrp_samples
    assert actual.serving_nr_rsrp == expected.serving_nr_rsrp


@given(traces())
@settings(max_examples=40, deadline=None)
def test_analyze_trace_matches_per_record_assembly(trace):
    """End-to-end: ``analyze_trace`` ≡ the per-record pipeline."""
    expected = oracle.analyze_trace(trace)
    actual = analyze_trace(trace)
    for field in dataclasses.fields(RunAnalysis):
        assert getattr(actual, field.name) == getattr(expected, field.name), \
            f"analyze_trace diverges from the oracle on {field.name}"


@st.composite
def gapped_intervals(draw):
    """Interval lists with gaps and zero-width intervals.

    ``extract_cellset_sequence`` never leaves a gap, so the traces above
    never reach the timeline's gap rule; dropped stream chunks do.
    Each interval starts at, or some whole steps after, the previous
    end, and may have zero width.
    """
    nr_pcell, nr_scell = CellIdentity(3, 521310), CellIdentity(7, 387410)
    lte_pcell = CellIdentity(2, 5145, Rat.LTE)
    cellsets = [CellSet(),
                CellSet(pcell=nr_pcell),
                CellSet(pcell=nr_pcell, mcg_scells=frozenset({nr_scell})),
                CellSet(pcell=lte_pcell),
                CellSet(pcell=lte_pcell, scg_pscell=CellIdentity(5, 632736))]
    intervals = []
    t = draw(st.integers(0, 4)) / 2.0
    for _ in range(draw(st.integers(0, 12))):
        start = t + draw(st.sampled_from([0, 0, 0, 1, 3])) / 2.0
        t = start + draw(st.integers(0, 6)) / 2.0
        intervals.append(CellSetInterval(draw(st.sampled_from(cellsets)),
                                         start, t))
    return intervals


@given(gapped_intervals(), traces(), st.one_of(st.none(), st.tuples(
    st.integers(0, 60).map(lambda v: v / 2.0),
    st.integers(0, 60).map(lambda v: v / 2.0))))
@settings(max_examples=60, deadline=None)
def test_gapped_timeline_matches_oracle(intervals, trace, window):
    """The gap branch: timeline, cycles, speed split, classification and
    serving-set lookup over gapped intervals (with unrelated records —
    both sides see the same inputs)."""
    expected = oracle.five_g_timeline(intervals)
    assert five_g_timeline(intervals) == expected
    icolumns = IntervalColumns.from_intervals(intervals)
    rcolumns = RecordColumns.from_trace(trace)
    assert loop_cycles(icolumns, window) == \
        oracle.loop_cycles(intervals, window)
    assert run_performance(rcolumns, icolumns) == \
        oracle.run_performance(intervals, trace.throughput_series())
    assert classify_loop(rcolumns, icolumns) == \
        oracle.classify_loop(rcolumns.signaling, intervals)
    expected_stats = _blank_analysis(intervals)
    oracle._collect_measurement_stats(rcolumns.signaling, expected_stats)
    actual_stats = _blank_analysis(intervals)
    _collect_measurement_stats(rcolumns, icolumns, actual_stats)
    assert actual_stats.serving_nr_rsrp == expected_stats.serving_nr_rsrp


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=15))
@settings(max_examples=200, deadline=None)
def test_median_bit_identical_to_numpy(values):
    assert _median(values) == float(np.median(values))
