"""Tests for serving cell set extraction (Appendix B replay)."""

import pytest
from hypothesis import given, strategies as st

from repro.cells.cell import CellIdentity, Rat
from repro.core.cellset import (
    CellSet,
    CellSetInterval,
    extract_cellset_sequence,
    five_g_timeline,
)
from repro.traces.records import (
    MmStateRecord,
    RrcReconfigurationRecord,
    RrcReestablishmentCompleteRecord,
    RrcReestablishmentRequestRecord,
    RrcReleaseRecord,
    RrcSetupCompleteRecord,
    ScellAddMod,
)
from tests.conftest import cell_id

P41 = cell_id(393, 521310)
S41 = cell_id(393, 501390)
S25A = cell_id(273, 387410)
S25B = cell_id(371, 387410)
LTE_P = cell_id(380, 5145, Rat.LTE)
LTE_P2 = cell_id(380, 5815, Rat.LTE)
NR_PS = cell_id(66, 632736)


class TestCellSet:
    def test_idle_set(self):
        assert CellSet().is_idle
        assert not CellSet().five_g_on

    def test_sa_is_5g_on(self):
        assert CellSet(pcell=P41).five_g_on

    def test_lte_only_is_off(self):
        assert not CellSet(pcell=LTE_P).five_g_on

    def test_nsa_with_scg_is_on(self):
        assert CellSet(pcell=LTE_P, scg_pscell=NR_PS).five_g_on

    def test_all_cells(self):
        cellset = CellSet(pcell=LTE_P, mcg_scells=frozenset({LTE_P2}),
                          scg_pscell=NR_PS, scg_scells=frozenset({S25A}))
        assert cellset.all_cells() == frozenset({LTE_P, LTE_P2, NR_PS, S25A})

    def test_nr_cells_filters_rat(self):
        cellset = CellSet(pcell=LTE_P, scg_pscell=NR_PS)
        assert cellset.nr_cells() == frozenset({NR_PS})

    def test_hashable_and_comparable(self):
        a = CellSet(pcell=P41, mcg_scells=frozenset({S41}))
        b = CellSet(pcell=P41, mcg_scells=frozenset({S41}))
        assert a == b
        assert len({a, b}) == 1

    def test_str_idle(self):
        assert str(CellSet()) == "{IDLE}"


class TestReplay:
    def test_empty_records(self):
        assert extract_cellset_sequence([]) == []

    def test_setup_creates_pcell(self):
        records = [RrcSetupCompleteRecord(time_s=1.0, cell=P41)]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        # The setup happens at the trace's very first timestamp, so no
        # zero-width IDLE head interval is emitted.
        assert len(intervals) == 1
        assert intervals[-1].cellset.pcell == P41
        assert intervals[-1].start_s == 1.0
        assert intervals[-1].end_s == 10.0

    def test_scell_addition(self):
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=P41),
            RrcReconfigurationRecord(time_s=3.0, pcell=P41,
                                     scell_add_mod=(ScellAddMod(1, S25A),
                                                    ScellAddMod(2, S41))),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        assert intervals[-1].cellset.mcg_scells == frozenset({S25A, S41})

    def test_release_by_index_tracks_the_right_cell(self):
        """sCellToReleaseList carries indices — the Figure 26 bookkeeping."""
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=P41),
            RrcReconfigurationRecord(time_s=3.0, pcell=P41,
                                     scell_add_mod=(ScellAddMod(1, S25A),
                                                    ScellAddMod(2, S41))),
            # Modification: add S25B at index 3, release index 1 (= S25A).
            RrcReconfigurationRecord(time_s=5.0, pcell=P41,
                                     scell_add_mod=(ScellAddMod(3, S25B),),
                                     scell_release_indices=(1,)),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        assert intervals[-1].cellset.mcg_scells == frozenset({S25B, S41})

    def test_release_unknown_index_is_noop(self):
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=P41),
            RrcReconfigurationRecord(time_s=3.0, pcell=P41,
                                     scell_release_indices=(7,)),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        # The no-op release never splits the connected interval (and the
        # IDLE head is zero-width at t=1.0, so it is not emitted).
        assert len(intervals) == 1
        assert intervals[0].cellset.pcell == P41

    def test_mm_deregistered_releases_all(self):
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=P41),
            MmStateRecord(time_s=5.0, state="DEREGISTERED",
                          substate="NO_CELL_AVAILABLE"),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        assert intervals[-1].cellset.is_idle

    def test_mm_registered_is_ignored(self):
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=P41),
            MmStateRecord(time_s=5.0, state="REGISTERED"),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        assert intervals[-1].cellset.pcell == P41

    def test_rrc_release(self):
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=P41),
            RrcReleaseRecord(time_s=6.0),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        assert intervals[-1].cellset.is_idle

    def test_handover_clears_mcg_scells(self):
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=LTE_P),
            RrcReconfigurationRecord(time_s=2.0, pcell=LTE_P,
                                     scell_add_mod=(ScellAddMod(1, LTE_P2),)),
            RrcReconfigurationRecord(time_s=4.0, pcell=LTE_P,
                                     handover_target=LTE_P2),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        final = intervals[-1].cellset
        assert final.pcell == LTE_P2
        assert not final.mcg_scells

    def test_scg_lifecycle(self):
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=LTE_P),
            RrcReconfigurationRecord(time_s=2.0, pcell=LTE_P,
                                     scg_pscell=NR_PS, scg_scells=(S25A,)),
            RrcReconfigurationRecord(time_s=8.0, pcell=LTE_P, release_scg=True),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        assert intervals[-2].cellset.scg_pscell == NR_PS
        assert intervals[-2].cellset.scg_scells == frozenset({S25A})
        assert intervals[-1].cellset.scg_pscell is None

    def test_handover_keeping_scg(self):
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=LTE_P),
            RrcReconfigurationRecord(time_s=2.0, pcell=LTE_P, scg_pscell=NR_PS),
            RrcReconfigurationRecord(time_s=4.0, pcell=LTE_P,
                                     handover_target=LTE_P2),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        final = intervals[-1].cellset
        assert final.pcell == LTE_P2
        assert final.scg_pscell == NR_PS

    def test_reestablishment_request_goes_idle_then_complete_restores(self):
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=LTE_P),
            RrcReconfigurationRecord(time_s=2.0, pcell=LTE_P, scg_pscell=NR_PS),
            RrcReestablishmentRequestRecord(time_s=5.0, cause="otherFailure"),
            RrcReestablishmentCompleteRecord(time_s=5.5, cell=LTE_P2),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        assert intervals[-2].cellset.is_idle
        assert intervals[-1].cellset.pcell == LTE_P2
        assert intervals[-1].cellset.scg_pscell is None

    def test_consecutive_identical_sets_merge(self):
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=P41),
            RrcSetupCompleteRecord(time_s=2.0, cell=P41),  # same outcome
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        assert len(intervals) == 1
        assert intervals[0] == CellSetInterval(CellSet(pcell=P41), 1.0, 10.0)

    def test_intervals_are_contiguous(self, s1e3_trace):
        intervals = extract_cellset_sequence(s1e3_trace.signaling_records())
        for previous, current in zip(intervals, intervals[1:]):
            assert previous.end_s == pytest.approx(current.start_s)

    # ------------------------------------------------------------------
    # Zero-width interval regressions: records sharing a timestamp must
    # never emit zero-duration intervals — the last same-time state wins.
    # ------------------------------------------------------------------

    def test_same_timestamp_burst_keeps_last_state_only(self):
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=P41),
            RrcReleaseRecord(time_s=5.0),
            RrcSetupCompleteRecord(time_s=5.0, cell=LTE_P),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        assert intervals == [
            CellSetInterval(CellSet(pcell=P41), 1.0, 5.0),
            CellSetInterval(CellSet(pcell=LTE_P), 5.0, 10.0),
        ]
        assert all(i.end_s > i.start_s for i in intervals)

    def test_same_timestamp_round_trip_merges_back(self):
        # P41 -> IDLE -> P41 at the same instant: the transient split
        # must merge back into one P41 interval.
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=P41),
            RrcReleaseRecord(time_s=5.0),
            RrcSetupCompleteRecord(time_s=5.0, cell=P41),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        assert intervals == [CellSetInterval(CellSet(pcell=P41), 1.0, 10.0)]

    def test_zero_width_tail_is_dropped(self):
        # The trace ends exactly at the last state change: that final
        # state never had any duration, so it must not appear.
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=P41),
            RrcReleaseRecord(time_s=10.0),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        assert intervals == [CellSetInterval(CellSet(pcell=P41), 1.0, 10.0)]

    def test_degenerate_single_instant_trace_keeps_one_interval(self):
        # Everything at one timestamp: keep the final state as a single
        # (zero-width) interval rather than returning nothing.
        records = [
            RrcSetupCompleteRecord(time_s=3.0, cell=P41),
            RrcSetupCompleteRecord(time_s=3.0, cell=LTE_P),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=3.0)
        assert intervals == [CellSetInterval(CellSet(pcell=LTE_P), 3.0, 3.0)]

    def test_no_zero_width_intervals_in_mixed_sequence(self):
        records = [
            RrcSetupCompleteRecord(time_s=0.0, cell=P41),
            RrcReleaseRecord(time_s=2.0),
            MmStateRecord(time_s=2.0, state="DEREGISTERED"),
            RrcSetupCompleteRecord(time_s=2.0, cell=LTE_P),
            RrcReleaseRecord(time_s=4.0),
            RrcSetupCompleteRecord(time_s=6.0, cell=P41),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=8.0)
        assert all(i.end_s > i.start_s for i in intervals)
        assert intervals == [
            CellSetInterval(CellSet(pcell=P41), 0.0, 2.0),
            CellSetInterval(CellSet(pcell=LTE_P), 2.0, 4.0),
            CellSetInterval(CellSet(), 4.0, 6.0),
            CellSetInterval(CellSet(pcell=P41), 6.0, 8.0),
        ]


class TestOutOfOrder:
    """Regressing timestamps used to silently emit negative-duration
    intervals; they now follow the TraceParseError taxonomy."""

    RECORDS = [
        RrcSetupCompleteRecord(time_s=1.0, cell=P41),
        RrcReleaseRecord(time_s=5.0),
        RrcSetupCompleteRecord(time_s=3.0, cell=LTE_P),  # regression!
        RrcReleaseRecord(time_s=7.0),
    ]

    def test_strict_mode_raises_taxonomy_error(self):
        from repro.resilience.errors import (
            OutOfOrderRecordError,
            TraceParseError,
        )
        with pytest.raises(OutOfOrderRecordError) as excinfo:
            extract_cellset_sequence(self.RECORDS, end_time_s=10.0)
        assert isinstance(excinfo.value, TraceParseError)

    def test_jitter_within_tolerance_is_not_disorder(self):
        records = [
            RrcSetupCompleteRecord(time_s=1.0, cell=P41),
            RrcReleaseRecord(time_s=5.0),
            RrcSetupCompleteRecord(time_s=5.0 - 1e-12, cell=LTE_P),
        ]
        intervals = extract_cellset_sequence(records, end_time_s=10.0)
        assert intervals[-1].cellset.pcell == LTE_P


class TestTimeline:
    def test_merges_adjacent_same_state(self):
        intervals = [
            CellSetInterval(CellSet(), 0.0, 1.0),
            CellSetInterval(CellSet(pcell=P41), 1.0, 3.0),
            CellSetInterval(CellSet(pcell=P41, mcg_scells=frozenset({S41})),
                            3.0, 5.0),
            CellSetInterval(CellSet(), 5.0, 9.0),
        ]
        timeline = five_g_timeline(intervals)
        assert timeline == [(False, 0.0, 1.0), (True, 1.0, 5.0),
                            (False, 5.0, 9.0)]

    def test_gap_between_same_state_intervals_is_not_merged(self):
        # A dropped stream chunk leaves a hole [3.0, 6.0) between two ON
        # intervals; merging across it would silently count the gap as
        # ON time.
        intervals = [
            CellSetInterval(CellSet(pcell=P41), 0.0, 3.0),
            CellSetInterval(CellSet(pcell=P41, mcg_scells=frozenset({S41})),
                            6.0, 9.0),
        ]
        timeline = five_g_timeline(intervals)
        assert timeline == [(True, 0.0, 3.0), (True, 6.0, 9.0)]
        assert sum(end - start for _, start, end in timeline) == 6.0

    def test_contiguous_intervals_still_merge(self):
        # Batch-extracted sequences are contiguous: the gap rule must
        # leave their segments exactly as before.
        intervals = [
            CellSetInterval(CellSet(pcell=P41), 0.0, 3.0),
            CellSetInterval(CellSet(pcell=P41, mcg_scells=frozenset({S41})),
                            3.0, 9.0),
            CellSetInterval(CellSet(), 9.0, 12.0),
        ]
        assert five_g_timeline(intervals) == [(True, 0.0, 9.0),
                                              (False, 9.0, 12.0)]

    @given(st.lists(st.booleans(), min_size=1, max_size=30))
    def test_timeline_alternates(self, states):
        intervals = []
        t = 0.0
        for index, on in enumerate(states):
            cellset = CellSet(pcell=P41 if on else None)
            intervals.append(CellSetInterval(cellset, t, t + 1.0))
            t += 1.0
        timeline = five_g_timeline(intervals)
        for previous, current in zip(timeline, timeline[1:]):
            assert previous[0] != current[0]
        assert sum(segment[2] - segment[1] for segment in timeline) == \
            pytest.approx(len(states))


class TestTrackerFuzz:
    """Random reconfiguration interleavings keep the tracker consistent."""

    @given(st.lists(st.tuples(st.sampled_from(["add", "release", "scg",
                                               "drop_scg", "handover",
                                               "reset"]),
                              st.integers(min_value=1, max_value=5)),
                    max_size=25))
    def test_tracker_matches_reference_fold(self, operations):
        from repro.traces.records import (
            RrcReconfigurationRecord,
            RrcReleaseRecord,
            ScellAddMod,
        )

        records = [RrcSetupCompleteRecord(time_s=0.0, cell=LTE_P)]
        # Reference state
        pcell = LTE_P
        table: dict[int, object] = {}
        scg = None
        t = 1.0
        for op, index in operations:
            if op == "add":
                cell = cell_id(100 + index, 387410)
                records.append(RrcReconfigurationRecord(
                    time_s=t, pcell=pcell,
                    scell_add_mod=(ScellAddMod(index, cell),)))
                table[index] = cell
            elif op == "release":
                records.append(RrcReconfigurationRecord(
                    time_s=t, pcell=pcell, scell_release_indices=(index,)))
                table.pop(index, None)
            elif op == "scg":
                records.append(RrcReconfigurationRecord(
                    time_s=t, pcell=pcell, scg_pscell=NR_PS))
                scg = NR_PS
            elif op == "drop_scg":
                records.append(RrcReconfigurationRecord(
                    time_s=t, pcell=pcell, release_scg=True))
                scg = None
            elif op == "handover":
                records.append(RrcReconfigurationRecord(
                    time_s=t, pcell=pcell, handover_target=LTE_P2))
                pcell = LTE_P2
                table.clear()
            else:  # reset
                records.append(RrcReleaseRecord(time_s=t))
                records.append(RrcSetupCompleteRecord(time_s=t + 0.1,
                                                      cell=LTE_P))
                pcell = LTE_P
                table.clear()
                scg = None
            t += 1.0
        intervals = extract_cellset_sequence(records, end_time_s=t + 1.0)
        final = intervals[-1].cellset
        assert final.pcell == pcell
        assert final.mcg_scells == frozenset(table.values())
        assert final.scg_pscell == scg
