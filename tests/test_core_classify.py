"""Tests for loop sub-type classification from crafted record lists."""

from repro.cells.cell import Rat
from repro.core.cellset import extract_cellset_sequence
from repro.core.classify import LoopSubtype, classify_loop
from repro.core.columnar import IntervalColumns
from repro.traces.records import (
    CellMeasurement,
    MeasurementReportRecord,
    MmStateRecord,
    RrcReconfigurationRecord,
    RrcReestablishmentCompleteRecord,
    RrcReestablishmentRequestRecord,
    RrcSetupCompleteRecord,
    ScellAddMod,
    ScgFailureRecord,
)
from tests.conftest import cell_id, record_columns

P41 = cell_id(393, 521310)
S25A = cell_id(273, 387410)
S25B = cell_id(371, 387410)
LTE_P = cell_id(380, 5145, Rat.LTE)
LTE_P2 = cell_id(380, 5815, Rat.LTE)
NR_PS = cell_id(66, 632736)


def analyse(records, end_time_s=None):
    """The production classifier's inputs: record and interval columns."""
    intervals = extract_cellset_sequence(records, end_time_s=end_time_s)
    return record_columns(records), IntervalColumns.from_intervals(intervals)


def off_transitions(records):
    """Every classified OFF transition, 5 s of trace after the last record."""
    _subtype, transitions = classify_loop(
        *analyse(records, end_time_s=records[-1].time_s + 5.0))
    return transitions


def off_transition_at(records, t_off):
    [transition] = [transition for transition in off_transitions(records)
                    if transition.time_s == t_off]
    return transition


class TestSubtypeLabels:
    def test_loop_type_grouping(self):
        assert LoopSubtype.S1E3.loop_type == "S1"
        assert LoopSubtype.N1E2.loop_type == "N1"
        assert LoopSubtype.N2E2.loop_type == "N2"
        assert LoopSubtype.N2_A2B1.loop_type == "N2"
        assert LoopSubtype.UNKNOWN.loop_type == "UNKNOWN"


class TestS1Classification:
    def test_s1e3_from_modification_then_exception(self, s1e3_trace):
        subtype, transitions = classify_loop(
            *analyse(s1e3_trace.signaling_records()))
        assert subtype is LoopSubtype.S1E3
        assert all(t.subtype is LoopSubtype.S1E3 for t in transitions)

    def _sa_records_with_reports(self, reported_measurements):
        records = [
            RrcSetupCompleteRecord(time_s=0.2, cell=P41),
            RrcReconfigurationRecord(time_s=3.0, pcell=P41,
                                     scell_add_mod=(ScellAddMod(1, S25A),)),
        ]
        for tick in range(4, 10):
            records.append(MeasurementReportRecord(
                time_s=float(tick), event="periodic",
                measurements=reported_measurements))
        records.append(MmStateRecord(time_s=10.0, state="DEREGISTERED",
                                     substate="NO_CELL_AVAILABLE"))
        return records

    def test_s1e1_when_serving_scell_never_reported(self):
        reports = (CellMeasurement(P41, -82.0, -10.5, is_serving=True),)
        records = self._sa_records_with_reports(reports)
        assert off_transition_at(records, 10.0).subtype is LoopSubtype.S1E1

    def test_s1e2_when_serving_scell_reported_poor(self):
        reports = (CellMeasurement(P41, -82.0, -10.5, is_serving=True),
                   CellMeasurement(S25A, -108.5, -25.5, is_serving=True))
        records = self._sa_records_with_reports(reports)
        assert off_transition_at(records, 10.0).subtype is LoopSubtype.S1E2

    def test_unknown_when_scells_look_healthy(self):
        reports = (CellMeasurement(P41, -82.0, -10.5, is_serving=True),
                   CellMeasurement(S25A, -85.0, -12.0, is_serving=True))
        records = self._sa_records_with_reports(reports)
        assert off_transition_at(records, 10.0).subtype is LoopSubtype.UNKNOWN

    def test_unknown_without_scells(self):
        records = [
            RrcSetupCompleteRecord(time_s=0.2, cell=P41),
            MmStateRecord(time_s=10.0, state="DEREGISTERED"),
        ]
        assert off_transition_at(records, 10.0).subtype is LoopSubtype.UNKNOWN


class TestNClassification:
    def _nsa_base(self):
        return [
            RrcSetupCompleteRecord(time_s=0.2, cell=LTE_P),
            RrcReconfigurationRecord(time_s=2.0, pcell=LTE_P, scg_pscell=NR_PS),
        ]

    def test_n2e2_from_scg_failure(self):
        records = self._nsa_base() + [
            ScgFailureRecord(time_s=30.0, failure_type="randomAccessProblem"),
            RrcReconfigurationRecord(time_s=30.1, pcell=LTE_P, release_scg=True),
        ]
        assert off_transitions(records)[0].subtype is LoopSubtype.N2E2

    def test_n2e1_from_handover_releasing_scg(self):
        records = self._nsa_base() + [
            RrcReconfigurationRecord(time_s=30.0, pcell=LTE_P,
                                     handover_target=LTE_P2, release_scg=True),
        ]
        assert off_transitions(records)[0].subtype is LoopSubtype.N2E1

    def test_n1e1_from_rlf_reestablishment(self):
        records = self._nsa_base() + [
            RrcReestablishmentRequestRecord(time_s=30.0, cause="otherFailure"),
            RrcReestablishmentCompleteRecord(time_s=30.5, cell=LTE_P2),
        ]
        assert off_transitions(records)[0].subtype is LoopSubtype.N1E1

    def test_n1e2_from_handover_failure(self):
        records = self._nsa_base() + [
            RrcReestablishmentRequestRecord(time_s=30.0, cause="handoverFailure",
                                            cell=LTE_P2),
        ]
        assert off_transitions(records)[0].subtype is LoopSubtype.N1E2

    def test_n1_found_later_in_off_period(self):
        """The paper's N1E2 chain: SCG-releasing handover first, the
        failed redirect a few seconds into the OFF period."""
        records = self._nsa_base() + [
            RrcReconfigurationRecord(time_s=30.0, pcell=LTE_P,
                                     handover_target=LTE_P2, release_scg=True),
            RrcReestablishmentRequestRecord(time_s=36.0, cause="handoverFailure"),
            RrcReestablishmentCompleteRecord(time_s=36.5, cell=LTE_P),
            RrcReconfigurationRecord(time_s=40.0, pcell=LTE_P, scg_pscell=NR_PS),
        ]
        assert off_transitions(records)[0].subtype is LoopSubtype.N1E2

    def test_reestablishment_outside_period_not_matched(self):
        records = self._nsa_base() + [
            RrcReconfigurationRecord(time_s=30.0, pcell=LTE_P,
                                     handover_target=LTE_P2, release_scg=True),
            RrcReconfigurationRecord(time_s=35.0, pcell=LTE_P2,
                                     scg_pscell=NR_PS),
            # A much later, unrelated failure after 5G came back.
            RrcReestablishmentRequestRecord(time_s=60.0, cause="handoverFailure"),
        ]
        assert off_transitions(records)[0].subtype is LoopSubtype.N2E1

    def test_legacy_a2b1_release_without_failure(self):
        records = self._nsa_base() + [
            RrcReconfigurationRecord(time_s=30.0, pcell=LTE_P, release_scg=True),
        ]
        assert off_transitions(records)[0].subtype is LoopSubtype.N2_A2B1


class TestMajorityVote:
    def test_majority_wins(self):
        records = [
            RrcSetupCompleteRecord(time_s=0.2, cell=LTE_P),
            RrcReconfigurationRecord(time_s=2.0, pcell=LTE_P, scg_pscell=NR_PS),
            RrcReconfigurationRecord(time_s=10.0, pcell=LTE_P,
                                     handover_target=LTE_P2, release_scg=True),
            RrcReconfigurationRecord(time_s=15.0, pcell=LTE_P2,
                                     scg_pscell=NR_PS),
            ScgFailureRecord(time_s=20.0),
            RrcReconfigurationRecord(time_s=20.1, pcell=LTE_P2, release_scg=True),
            RrcReconfigurationRecord(time_s=25.0, pcell=LTE_P2,
                                     scg_pscell=NR_PS),
            ScgFailureRecord(time_s=30.0),
            RrcReconfigurationRecord(time_s=30.1, pcell=LTE_P2, release_scg=True),
        ]
        subtype, transitions = classify_loop(
            *analyse(records, end_time_s=records[-1].time_s + 5.0))
        assert subtype is LoopSubtype.N2E2
        assert len(transitions) == 3

    def test_unknown_when_no_votes(self):
        records = [RrcSetupCompleteRecord(time_s=0.2, cell=P41)]
        subtype, transitions = classify_loop(
            *analyse(records, end_time_s=records[-1].time_s + 5.0))
        assert subtype is LoopSubtype.UNKNOWN
        assert transitions == []


class TestOffPeriods:
    def test_initial_off_not_counted(self):
        records = [RrcSetupCompleteRecord(time_s=5.0, cell=P41)]
        assert off_transitions(records) == []

    def test_periods_have_positive_length(self, s1e3_trace):
        _, icolumns = analyse(s1e3_trace.signaling_records())
        off = ~icolumns.seg_on
        assert off.any()
        assert (icolumns.seg_end[off] >= icolumns.seg_start[off]).all()
