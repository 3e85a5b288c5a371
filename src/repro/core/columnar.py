"""Columnar tables of one trace, for the analysis hot path.

Every analysis stage past loop detection looks records and intervals up
by time.  Re-scanning Python record lists for each lookup is what made
the per-record pipeline slow, so each trace is tabulated **once**:
per-kind record time arrays (:class:`RecordColumns`, built in one pass
by :meth:`RecordColumns.from_trace`) and interval start/end/5G-on/interned
cell-set-id arrays plus the collapsed 5G timeline
(:class:`IntervalColumns`).  The stages themselves live in the modules
named after their concept — :mod:`repro.core.classify`,
:mod:`repro.core.metrics` and :mod:`repro.core.pipeline` — and turn
their lookups into ``np.searchsorted`` calls over these tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cells.cell import CellIdentity, Rat
from repro.core.cellset import CellSet, CellSetInterval
from repro.traces.log import SignalingTrace
from repro.traces.records import (
    MeasurementReportRecord,
    MmStateRecord,
    Record,
    RrcReconfigurationRecord,
    RrcReestablishmentRequestRecord,
    ScgFailureRecord,
    ThroughputSampleRecord,
)

__all__ = [
    "IntervalColumns",
    "RecordColumns",
]

_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


def _as_f64(values: list[float]) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) if values else _EMPTY_F64


def _as_i64(values: list[int]) -> np.ndarray:
    return np.asarray(values, dtype=np.int64) if values else _EMPTY_I64


@dataclass
class RecordColumns:
    """Per-kind record tables of one trace, built in a single pass.

    All time arrays are float64 and non-decreasing (traces guarantee
    record order); the parallel object lists keep the original record
    order so "first/last match in a window" lookups resolve ties the
    same way a forward scan over the record list does.
    """

    #: The RRC capture proper (throughput samples excluded), in order.
    signaling: list[Record]
    throughput_t: np.ndarray
    throughput_mbps: np.ndarray
    #: Measurement reports + their times; NR-bearing report times feed
    #: the SCG recovery-delay match.
    meas_reports: list[MeasurementReportRecord]
    meas_t: np.ndarray
    nr_report_t: np.ndarray
    scg_failure_t: np.ndarray
    reest: list[RrcReestablishmentRequestRecord]
    reest_t: np.ndarray
    #: MM5G DEREGISTERED lines: times + their indices into ``signaling``
    #: (the SCell-outcome lookahead is index-ordered).
    dereg_t: np.ndarray
    dereg_sig_index: np.ndarray
    #: Reconfigurations carrying an SCG config (for ``_last_scg_pscell``).
    scg_config_t: np.ndarray
    scg_config_pscells: list[CellIdentity]
    #: Handover reconfigurations that also release the SCG (N2E1).
    ho_release_t: np.ndarray
    ho_release_targets: list[CellIdentity | None]
    #: Non-handover SCG releases (the legacy A2-B1 trigger).
    scg_release_t: np.ndarray
    #: Reconfigurations with both an add/mod list and release indices —
    #: the broad S1E3 predicate; the SCell-outcome pass filters further.
    scellmod: list[RrcReconfigurationRecord]
    scellmod_t: np.ndarray
    scellmod_sig_index: np.ndarray

    @staticmethod
    def from_trace(trace: SignalingTrace) -> "RecordColumns":
        signaling: list[Record] = []
        throughput_t: list[float] = []
        throughput_mbps: list[float] = []
        meas_reports: list[MeasurementReportRecord] = []
        meas_t: list[float] = []
        nr_report_t: list[float] = []
        scg_failure_t: list[float] = []
        reest: list[RrcReestablishmentRequestRecord] = []
        reest_t: list[float] = []
        dereg_t: list[float] = []
        dereg_sig_index: list[int] = []
        scg_config_t: list[float] = []
        scg_config_pscells: list[CellIdentity] = []
        ho_release_t: list[float] = []
        ho_release_targets: list[CellIdentity | None] = []
        scg_release_t: list[float] = []
        scellmod: list[RrcReconfigurationRecord] = []
        scellmod_t: list[float] = []
        scellmod_sig_index: list[int] = []
        for record in trace.records:
            if isinstance(record, ThroughputSampleRecord):
                throughput_t.append(record.time_s)
                throughput_mbps.append(record.mbps)
                continue
            sig_index = len(signaling)
            signaling.append(record)
            if isinstance(record, MeasurementReportRecord):
                meas_reports.append(record)
                meas_t.append(record.time_s)
                if any(measurement.identity.rat is Rat.NR
                       for measurement in record.measurements):
                    nr_report_t.append(record.time_s)
            elif isinstance(record, ScgFailureRecord):
                scg_failure_t.append(record.time_s)
            elif isinstance(record, RrcReestablishmentRequestRecord):
                reest.append(record)
                reest_t.append(record.time_s)
            elif isinstance(record, MmStateRecord):
                if record.state == "DEREGISTERED":
                    dereg_t.append(record.time_s)
                    dereg_sig_index.append(sig_index)
            elif isinstance(record, RrcReconfigurationRecord):
                if record.scg_pscell is not None:
                    scg_config_t.append(record.time_s)
                    scg_config_pscells.append(record.scg_pscell)
                if record.release_scg:
                    if record.is_handover:
                        ho_release_t.append(record.time_s)
                        ho_release_targets.append(record.handover_target)
                    else:
                        scg_release_t.append(record.time_s)
                if record.scell_add_mod and record.scell_release_indices:
                    scellmod.append(record)
                    scellmod_t.append(record.time_s)
                    scellmod_sig_index.append(sig_index)
        return RecordColumns(
            signaling=signaling,
            throughput_t=_as_f64(throughput_t),
            throughput_mbps=_as_f64(throughput_mbps),
            meas_reports=meas_reports,
            meas_t=_as_f64(meas_t),
            nr_report_t=_as_f64(nr_report_t),
            scg_failure_t=_as_f64(scg_failure_t),
            reest=reest,
            reest_t=_as_f64(reest_t),
            dereg_t=_as_f64(dereg_t),
            dereg_sig_index=_as_i64(dereg_sig_index),
            scg_config_t=_as_f64(scg_config_t),
            scg_config_pscells=scg_config_pscells,
            ho_release_t=_as_f64(ho_release_t),
            ho_release_targets=ho_release_targets,
            scg_release_t=_as_f64(scg_release_t),
            scellmod=scellmod,
            scellmod_t=_as_f64(scellmod_t),
            scellmod_sig_index=_as_i64(scellmod_sig_index),
        )


@dataclass
class IntervalColumns:
    """The cell-set interval sequence as parallel arrays.

    Cell sets are interned: ``cellsets`` holds each distinct set once
    (first-appearance order) and ``cellset_id`` maps intervals into it.
    The collapsed 5G timeline (``seg_*``; this is the one
    implementation of the rule, :func:`repro.core.cellset.five_g_timeline`
    returns these segments as tuples) and the ON-interval projection
    (``on_*``, for the classifier's serving-set-before-OFF lookup) are
    precomputed here because three different stages reuse them.
    """

    start: np.ndarray
    end: np.ndarray
    on: np.ndarray
    cellset_id: np.ndarray
    cellsets: list[CellSet]
    seg_on: np.ndarray
    seg_start: np.ndarray
    seg_end: np.ndarray
    on_start: np.ndarray
    on_end: np.ndarray
    on_cellset_id: np.ndarray

    @staticmethod
    def from_intervals(intervals: list[CellSetInterval]) -> "IntervalColumns":
        n = len(intervals)
        cellsets: list[CellSet] = []
        table: dict[CellSet, int] = {}
        ids = np.empty(n, dtype=np.int64)
        start = np.empty(n, dtype=np.float64)
        end = np.empty(n, dtype=np.float64)
        for index, interval in enumerate(intervals):
            cellset_id = table.get(interval.cellset)
            if cellset_id is None:
                cellset_id = len(cellsets)
                table[interval.cellset] = cellset_id
                cellsets.append(interval.cellset)
            ids[index] = cellset_id
            start[index] = interval.start_s
            end[index] = interval.end_s
        unique_on = np.fromiter((cellset.five_g_on for cellset in cellsets),
                                dtype=bool, count=len(cellsets)) \
            if cellsets else _EMPTY_BOOL
        on = unique_on[ids] if n else _EMPTY_BOOL

        if n:
            # Same-state intervals only merge into one segment when
            # contiguous: a gap between intervals (dropped stream
            # chunks) must survive as a segment boundary, not be
            # absorbed into ON/OFF time.
            change = np.flatnonzero((on[1:] != on[:-1])
                                    | (start[1:] != end[:-1]))
            seg_first = np.concatenate(([0], change + 1))
            seg_last = np.concatenate((change, [n - 1]))
            seg_on = on[seg_first]
            seg_start = start[seg_first]
            seg_end = end[seg_last]
        else:
            seg_on, seg_start, seg_end = _EMPTY_BOOL, _EMPTY_F64, _EMPTY_F64

        return IntervalColumns(
            start=start, end=end, on=on, cellset_id=ids, cellsets=cellsets,
            seg_on=seg_on, seg_start=seg_start, seg_end=seg_end,
            on_start=start[on], on_end=end[on], on_cellset_id=ids[on],
        )
