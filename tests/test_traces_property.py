"""Property-based tests over whole random traces and single records."""

import dataclasses
import json
import math

from hypothesis import given, settings, strategies as st

from repro.cells.cell import CellIdentity, Rat
from repro.resilience.errors import TraceParseError
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.parser import parse_jsonl, parse_record, record_kinds
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

identities = st.builds(
    CellIdentity,
    pci=st.integers(min_value=0, max_value=1007),
    channel=st.sampled_from([387410, 398410, 521310, 5815, 5145, 632736]),
    rat=st.sampled_from([Rat.NR, Rat.LTE]),
)

measurements = st.builds(
    CellMeasurement,
    identity=identities,
    rsrp_dbm=st.floats(min_value=-140.0, max_value=-40.0).map(lambda v: round(v, 2)),
    rsrq_db=st.floats(min_value=-30.0, max_value=-5.0).map(lambda v: round(v, 2)),
    is_serving=st.booleans(),
)


def _record_strategies(time):
    return st.one_of(
        st.builds(RrcSetupCompleteRecord, time_s=time, cell=identities),
        st.builds(RrcReleaseRecord, time_s=time),
        st.builds(MmStateRecord, time_s=time,
                  state=st.sampled_from(["REGISTERED", "DEREGISTERED"]),
                  substate=st.sampled_from(["", "NO_CELL_AVAILABLE"])),
        st.builds(ScgFailureRecord, time_s=time,
                  failure_type=st.sampled_from(["randomAccessProblem", "rlf"])),
        st.builds(RrcReestablishmentRequestRecord, time_s=time,
                  cause=st.sampled_from(["otherFailure", "handoverFailure"]),
                  cell=st.one_of(st.none(), identities)),
        st.builds(MeasurementReportRecord, time_s=time,
                  event=st.sampled_from(["periodic", "A3", "B1"]),
                  measurements=st.tuples(measurements)),
        st.builds(RrcReconfigurationRecord, time_s=time, pcell=identities,
                  scell_add_mod=st.lists(
                      st.builds(ScellAddMod,
                                scell_index=st.integers(1, 8),
                                identity=identities),
                      max_size=3).map(tuple),
                  scell_release_indices=st.lists(st.integers(1, 8),
                                                 max_size=2).map(tuple),
                  release_scg=st.booleans()),
        st.builds(ThroughputSampleRecord, time_s=time,
                  mbps=st.floats(min_value=0.0, max_value=500.0)
                  .map(lambda v: round(v, 3))),
    )


@st.composite
def traces(draw):
    count = draw(st.integers(min_value=0, max_value=25))
    times = sorted(round(draw(st.floats(min_value=0.0, max_value=300.0)), 4)
                   for _ in range(count))
    trace = SignalingTrace(metadata=TraceMetadata(
        operator=draw(st.sampled_from(["OP_T", "OP_A", "OP_V"])),
        area="A1", location="P1", device="OnePlus 12R",
        run_seed=draw(st.integers(0, 2 ** 31))))
    for time in times:
        trace.append(draw(_record_strategies(st.just(time))))
    return trace


class TestTraceRoundTrip:
    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_jsonl_round_trip_identity(self, trace):
        parsed = parse_jsonl(trace.to_jsonl())
        assert parsed.metadata == trace.metadata
        assert parsed.records == trace.records

    @given(traces())
    @settings(max_examples=30, deadline=None)
    def test_analysis_never_crashes_on_arbitrary_traces(self, trace):
        """The pipeline must be total over syntactically valid traces."""
        from repro.core.pipeline import analyze_trace

        analysis = analyze_trace(trace)
        assert analysis.n_cs_samples == len(analysis.intervals)
        for cycle in analysis.cycles:
            assert cycle.on_s >= 0.0 and cycle.off_s >= 0.0


_PCELL = CellIdentity(393, 521310, Rat.NR)
_SCELL = CellIdentity(273, 387410, Rat.NR)

#: One valid record of every kind, fully populated so every optional
#: field is present in its JSON form.
VALID_RECORDS = [
    SystemInfoRecord(time_s=1.0, cell=_PCELL),
    RrcSetupRequestRecord(time_s=1.0, cell=_PCELL),
    RrcSetupRecord(time_s=1.0, cell=_PCELL),
    RrcSetupCompleteRecord(time_s=1.0, cell=_PCELL),
    MeasurementReportRecord(time_s=1.0, event="A3", measurements=(
        CellMeasurement(_PCELL, -80.0, -10.0, True),)),
    RrcReconfigurationRecord(
        time_s=1.0, pcell=_PCELL, scell_add_mod=(ScellAddMod(1, _SCELL),),
        scell_release_indices=(2,), handover_target=_PCELL,
        scg_pscell=_SCELL, scg_scells=(_SCELL,), release_scg=True,
        meas_events=(("A3", 521310, 3.0),)),
    RrcReconfigurationCompleteRecord(time_s=1.0, pcell=_PCELL),
    ScgFailureRecord(time_s=1.0),
    RrcReestablishmentRequestRecord(time_s=1.0, cell=_PCELL),
    RrcReestablishmentCompleteRecord(time_s=1.0, cell=_PCELL),
    RrcReleaseRecord(time_s=1.0),
    MmStateRecord(time_s=1.0, state="DEREGISTERED"),
    ThroughputSampleRecord(time_s=1.0, mbps=250.0),
]


def _paths(value, prefix=()):
    """Every key/index path into a decoded JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


#: Arbitrary JSON: non-finite and overflowing numbers (``1e400`` is
#: infinity once decoded), huge integers, strings, nested lists/dicts.
json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=5)
    | st.integers() | st.sampled_from([10 ** 400, -(10 ** 400)])
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6)


@st.composite
def corrupted_record_dicts(draw):
    """A valid record's JSON with one field replaced by arbitrary JSON."""
    data = json.loads(json.dumps(draw(st.sampled_from(VALID_RECORDS)).to_dict()))
    path = draw(st.sampled_from(list(_paths(data))))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(json_values)
    # Through the text form, as a trace line or stream frame arrives.
    return json.loads(json.dumps(data))


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _floats(getattr(value, field.name))


def test_valid_records_cover_every_kind():
    assert {record.kind for record in VALID_RECORDS} == set(record_kinds())
    for record in VALID_RECORDS:
        assert parse_record(record.to_dict()) == record


@given(corrupted_record_dicts())
@settings(max_examples=400, deadline=None)
def test_parse_record_decodes_or_raises_from_the_taxonomy(data):
    """Any JSON in any field: a ``Record`` with finite floats, or a
    ``TraceParseError`` — never a bare decoder exception."""
    try:
        record = parse_record(data)
    except TraceParseError:
        return
    assert isinstance(record, Record)
    assert all(math.isfinite(value) for value in _floats(record))


# ----------------------------------------------------------------------
# to_jsonl's per-kind encoders write exactly json.dumps(record.to_dict())
# ----------------------------------------------------------------------

#: Any number a record field may carry: non-finite and integer-valued
#: floats, ints, and the floats whose shortest repr is unusual.
any_numbers = st.one_of(
    st.floats(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.sampled_from([0.0, -0.0, 1.0, -120.0, 1e16, 1e308, 5e-324, 0.1,
                     -103.865, 2.675, float("inf"), float("-inf"),
                     float("nan")]),
)
any_flags = st.one_of(st.booleans(), st.integers(0, 1), st.none())
any_texts = st.one_of(
    st.text(),
    st.sampled_from(["periodic", "B1", "é", "日本語", " ", "\ud800",
                     '"\\', "\x00\x1f", ""]),
)
#: A few identities drawn over and over, so a trace reuses identity
#: objects and also holds equal but distinct ones.
shared_identities = st.sampled_from([CellIdentity(273, 387410),
                                     CellIdentity(273, 387410),
                                     CellIdentity(1007, 5815, Rat.LTE),
                                     CellIdentity(0, 0)])
any_identities = st.one_of(shared_identities, identities)
#: Floats as the simulator writes them, and the non-finite ones.
float_values = st.one_of(st.floats(),
                         st.sampled_from([float("nan"), float("inf"),
                                          float("-inf")]))
#: A report's measurements: all of the types the simulator writes
#: (floats, non-finite ones included, and bools), or any values at all.
any_measurement_lists = st.one_of(
    st.lists(st.builds(CellMeasurement, identity=any_identities,
                       rsrp_dbm=float_values, rsrq_db=float_values,
                       is_serving=st.booleans()), max_size=12),
    st.lists(st.builds(CellMeasurement, identity=any_identities,
                       rsrp_dbm=any_numbers, rsrq_db=any_numbers,
                       is_serving=any_flags), max_size=12),
).map(tuple)
any_times = st.one_of(st.floats(min_value=0.0, max_value=1e6), any_numbers)


_time, _cell = any_times, any_identities
#: One strategy per record class, with arbitrary values in every field.
ANY_RECORD = {
    SystemInfoRecord: st.builds(SystemInfoRecord, time_s=_time, cell=_cell,
                                selection_threshold_dbm=any_numbers),
    RrcSetupRequestRecord: st.builds(RrcSetupRequestRecord, time_s=_time,
                                     cell=_cell),
    RrcSetupRecord: st.builds(RrcSetupRecord, time_s=_time, cell=_cell),
    RrcSetupCompleteRecord: st.builds(RrcSetupCompleteRecord, time_s=_time,
                                      cell=_cell),
    MeasurementReportRecord: st.builds(
        MeasurementReportRecord, time_s=_time, event=any_texts,
        measurements=any_measurement_lists),
    RrcReconfigurationRecord: st.builds(
        RrcReconfigurationRecord, time_s=_time, pcell=_cell,
        scell_add_mod=st.lists(st.builds(ScellAddMod,
                                         scell_index=st.integers(0, 31),
                                         identity=_cell),
                               max_size=3).map(tuple),
        scell_release_indices=st.lists(st.integers(0, 31),
                                       max_size=2).map(tuple),
        handover_target=st.one_of(st.none(), _cell),
        scg_pscell=st.one_of(st.none(), _cell),
        scg_scells=st.lists(_cell, max_size=2).map(tuple),
        release_scg=any_flags,
        meas_events=st.lists(st.tuples(any_texts, st.integers(0, 10 ** 6),
                                       any_numbers), max_size=2).map(tuple)),
    RrcReconfigurationCompleteRecord: st.builds(
        RrcReconfigurationCompleteRecord, time_s=_time, pcell=_cell),
    ScgFailureRecord: st.builds(ScgFailureRecord, time_s=_time,
                                failure_type=any_texts),
    RrcReestablishmentRequestRecord: st.builds(
        RrcReestablishmentRequestRecord, time_s=_time, cause=any_texts,
        cell=st.one_of(st.none(), _cell)),
    RrcReestablishmentCompleteRecord: st.builds(
        RrcReestablishmentCompleteRecord, time_s=_time, cell=_cell),
    RrcReleaseRecord: st.builds(RrcReleaseRecord, time_s=_time),
    MmStateRecord: st.builds(MmStateRecord, time_s=_time, state=any_texts,
                             substate=any_texts),
    ThroughputSampleRecord: st.builds(ThroughputSampleRecord, time_s=_time,
                                      mbps=st.one_of(float_values, any_numbers)),
}


def test_any_record_strategies_cover_every_kind():
    assert {cls.kind for cls in ANY_RECORD} == set(record_kinds())


@given(records=st.lists(st.one_of(*ANY_RECORD.values()), max_size=30))
@settings(max_examples=300, deadline=None)
def test_to_jsonl_lines_equal_json_dumps_of_to_dict(records):
    trace = SignalingTrace(metadata=TraceMetadata(operator="OP_é", run_seed=7),
                           records=records)
    lines = trace.to_jsonl().split("\n")
    assert lines[-1] == ""
    assert lines[0] == json.dumps({"meta": trace.metadata.to_dict()})
    assert lines[1:-1] == [json.dumps(record.to_dict()) for record in records]
