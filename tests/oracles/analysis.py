"""Per-record reference implementations of the analysis stages.

Production (``repro.core``) computes every stage past loop detection
over the columnar tables of :mod:`repro.core.columnar`.  The functions
here do the same job the direct way — re-scanning the record list and
the interval list — and are what the Hypothesis equivalence suites
(``tests/test_core_columnar.py``) and the analysis hot-path benchmark
compare production against, field by field and bit for bit.

Each function keeps the name of the production function it checks:

* metrics (``repro.core.metrics``): :func:`loop_cycles`,
  :func:`run_performance`, :func:`scg_measurement_delays`;
* classification (``repro.core.classify``): :func:`classify_loop` and
  its helpers, plus :func:`classify_off_transition` for single-OFF
  cases;
* statistics (``repro.core.pipeline``):
  :func:`_scell_modification_outcomes`,
  :func:`_collect_measurement_stats`;
* the 5G timeline collapse (``repro.core.cellset``):
  :func:`five_g_timeline`;
* the whole pipeline: :func:`analyze_trace`, the per-record assembly of
  a :class:`~repro.core.pipeline.RunAnalysis`.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.cells.cell import CellIdentity, Rat
from repro.core.cellset import CellSet, CellSetInterval, extract_cellset_sequence
from repro.core.classify import (
    _POOR_RSRQ_DB,
    _REPORT_LOOKBACK_S,
    _TRIGGER_WINDOW_AFTER_S,
    _TRIGGER_WINDOW_BEFORE_S,
    LoopSubtype,
    OffTransition,
)
from repro.core.loops import detect_loop, loop_window
from repro.core.metrics import CycleMetrics, RunPerformance
from repro.core.pipeline import RunAnalysis, ScellModOutcome
from repro.traces.log import SignalingTrace
from repro.traces.records import (
    MeasurementReportRecord,
    MmStateRecord,
    Record,
    RrcReconfigurationRecord,
    RrcReestablishmentRequestRecord,
    ScgFailureRecord,
)


# ----------------------------------------------------------------------
# The 5G timeline (production: repro.core.cellset.five_g_timeline)
# ----------------------------------------------------------------------


def five_g_timeline(intervals: list[CellSetInterval]) -> list[tuple[bool, float, float]]:
    """Collapse a cell set sequence into (is_on, start, end) segments.

    Adjacent same-state intervals merge only when they are contiguous
    (``segments[-1][2] == interval.start_s``): a gap between intervals
    (dropped stream chunks) must not be silently absorbed into ON/OFF
    time.  Batch-extracted sequences are always contiguous, so their
    segments are unchanged.
    """
    segments: list[tuple[bool, float, float]] = []
    for interval in intervals:
        on = interval.cellset.five_g_on
        if segments and segments[-1][0] == on \
                and segments[-1][2] == interval.start_s:
            previous = segments[-1]
            segments[-1] = (on, previous[1], interval.end_s)
        else:
            segments.append((on, interval.start_s, interval.end_s))
    return segments


# ----------------------------------------------------------------------
# Metrics (production: repro.core.metrics)
# ----------------------------------------------------------------------


def loop_cycles(intervals: list[CellSetInterval],
                window: tuple[float, float] | None = None) -> list[CycleMetrics]:
    """Extract every complete ON-then-OFF cycle from the 5G timeline.

    ``window`` restricts extraction to a [start, end) time span —
    normally the detected loop's span (see
    :func:`repro.core.loops.loop_window`), so cycles outside the
    periodic region do not contaminate the Figure 10 distributions.
    Segments straddling the window boundary are clipped to it.
    """
    segments = five_g_timeline(intervals)
    if window is not None:
        start_w, end_w = window
        clipped = []
        for on, start, end in segments:
            start_c = max(start, start_w)
            end_c = min(end, end_w)
            if end_c > start_c:
                clipped.append((on, start_c, end_c))
        segments = clipped
    cycles: list[CycleMetrics] = []
    for index in range(len(segments) - 1):
        on_segment = segments[index]
        off_segment = segments[index + 1]
        if on_segment[0] and not off_segment[0]:
            cycles.append(CycleMetrics(on_s=on_segment[2] - on_segment[1],
                                       off_s=off_segment[2] - off_segment[1]))
    return cycles


def run_performance(intervals: list[CellSetInterval],
                    throughput_series: list[tuple[float, float]]) -> RunPerformance:
    """Split the 1 Hz speed series by 5G state and compute per-cycle losses.

    ``throughput_series`` must be sorted by time (traces guarantee it);
    the merge against the timeline segments is a single forward pass.
    Samples captured *before* the first signaling record carry no known
    5G state and are dropped; samples past the final segment extrapolate
    its state, as the capture simply outlived the signaling.
    """
    segments = five_g_timeline(intervals)
    performance = RunPerformance()
    if not segments or not throughput_series:
        return performance
    first_start = segments[0][1]
    last_on, _last_start, last_end = segments[-1]
    on_samples = performance.on_speed_samples
    off_samples = performance.off_speed_samples
    segment_samples: list[list[float]] = [[] for _ in segments]
    cursor = 0
    last_index = len(segments) - 1
    for t, mbps in throughput_series:
        if t < first_start:
            continue
        if t >= last_end:
            (on_samples if last_on else off_samples).append(mbps)
            continue
        while cursor < last_index and t >= segments[cursor][2]:
            cursor += 1
        segment_samples[cursor].append(mbps)
        (on_samples if segments[cursor][0] else off_samples).append(mbps)
    # Per-cycle loss: median ON speed minus median OFF speed inside each
    # consecutive (ON, OFF) segment pair.
    for index in range(len(segments) - 1):
        if not (segments[index][0] and not segments[index + 1][0]):
            continue
        on_speeds = segment_samples[index]
        off_speeds = segment_samples[index + 1]
        if on_speeds and off_speeds:
            loss = float(np.median(on_speeds)) - float(np.median(off_speeds))
            performance.cycle_speed_losses.append(loss)
    return performance


def scg_measurement_delays(records: list[Record]) -> list[float]:
    """Delay from each SCG failure to the next report containing a 5G cell.

    One pass splits the (time-ordered) records into failure times and
    the times of reports that contain any NR cell; a forward-only cursor
    then matches each failure to its recovery report, so the matching is
    O(failures + reports) instead of O(failures x reports).
    """
    failure_times: list[float] = []
    nr_report_times: list[float] = []
    for record in records:
        if isinstance(record, ScgFailureRecord):
            failure_times.append(record.time_s)
        elif isinstance(record, MeasurementReportRecord):
            if any(measurement.identity.rat is Rat.NR
                   for measurement in record.measurements):
                nr_report_times.append(record.time_s)
    delays: list[float] = []
    cursor = 0
    n_reports = len(nr_report_times)
    for failure_time in failure_times:
        while cursor < n_reports and nr_report_times[cursor] <= failure_time:
            cursor += 1
        if cursor < n_reports:
            delays.append(nr_report_times[cursor] - failure_time)
    return delays


# ----------------------------------------------------------------------
# Classification (production: repro.core.classify)
# ----------------------------------------------------------------------


def _window(records: list[Record], t_off: float) -> list[Record]:
    return [record for record in records
            if t_off - _TRIGGER_WINDOW_BEFORE_S <= record.time_s
            <= t_off + _TRIGGER_WINDOW_AFTER_S]


def _on_cellset_before(intervals: list[CellSetInterval],
                       t_off: float) -> CellSet | None:
    """The serving cell set that was active just before the OFF transition."""
    best: CellSet | None = None
    for interval in intervals:
        if interval.cellset.five_g_on and interval.start_s < t_off + 1e-6 \
                and interval.end_s <= t_off + 1e-6:
            best = interval.cellset
    return best


def _classify_sa_exception(records: list[Record],
                           intervals: list[CellSetInterval],
                           t_off: float) -> tuple[LoopSubtype,
                                                  CellIdentity | None]:
    """Split an MM-DEREGISTERED exception into S1E1 / S1E2 / S1E3."""
    for record in records:
        if isinstance(record, RrcReconfigurationRecord) \
                and t_off - 2.0 <= record.time_s <= t_off + 1e-6 \
                and record.scell_add_mod and record.scell_release_indices:
            return LoopSubtype.S1E3, record.scell_add_mod[0].identity

    cellset = _on_cellset_before(intervals, t_off)
    if cellset is None or cellset.pcell is None:
        return LoopSubtype.UNKNOWN, None
    # Sorted: a frozenset's order follows the per-process string hash
    # (PYTHONHASHSEED), and the first unseen or poor SCell is the one named.
    serving_scells = sorted(cell for cell in cellset.mcg_scells
                            if cell.rat is Rat.NR)
    if not serving_scells:
        return LoopSubtype.UNKNOWN, None

    recent_reports = [record for record in records
                      if isinstance(record, MeasurementReportRecord)
                      and t_off - _REPORT_LOOKBACK_S <= record.time_s <= t_off]
    if recent_reports:
        for scell in serving_scells:
            seen = any(report.measurement_of(scell) is not None
                       for report in recent_reports)
            if not seen:
                return LoopSubtype.S1E1, scell
        poor_votes = 0
        worst_scell = None
        for report in recent_reports:
            for scell in serving_scells:
                measurement = report.measurement_of(scell)
                if measurement is not None and measurement.rsrq_db <= _POOR_RSRQ_DB:
                    poor_votes += 1
                    worst_scell = scell
                    break
        if poor_votes >= max(1, len(recent_reports) // 2):
            return LoopSubtype.S1E2, worst_scell
    return LoopSubtype.UNKNOWN, None


def classify_off_transition_cell(records: list[Record],
                                 intervals: list[CellSetInterval],
                                 t_off: float,
                                 t_off_end: float | None = None,
                                 ) -> tuple[LoopSubtype, CellIdentity | None]:
    """Classify the trigger of one 5G-OFF transition.

    ``t_off_end`` is when 5G next turned ON (or the end of trace).  An N1
    loop loses the 4G connection *somewhere within* the OFF period —
    e.g. OP_A's blind redirect to a weak twin fails a second or two
    after the SCG-releasing handover that started the OFF — so the
    reestablishment search spans the whole period, while the other
    triggers are looked up right around the transition itself.
    """
    window = _window(records, t_off)

    for record in window:
        if isinstance(record, ScgFailureRecord):
            return LoopSubtype.N2E2, _last_scg_pscell(records, t_off)
    period_end = t_off_end if t_off_end is not None \
        else t_off + _TRIGGER_WINDOW_AFTER_S
    for record in records:
        if not isinstance(record, RrcReestablishmentRequestRecord):
            continue
        if t_off - _TRIGGER_WINDOW_BEFORE_S <= record.time_s <= period_end:
            if record.cause == "handoverFailure":
                return LoopSubtype.N1E2, record.cell
            return LoopSubtype.N1E1, record.cell
    for record in window:
        if isinstance(record, MmStateRecord) and record.state == "DEREGISTERED":
            return _classify_sa_exception(records, intervals, t_off)
    for record in window:
        if isinstance(record, RrcReconfigurationRecord) and record.is_handover \
                and record.release_scg:
            return LoopSubtype.N2E1, record.handover_target
    for record in window:
        if isinstance(record, RrcReconfigurationRecord) and record.release_scg \
                and not record.is_handover:
            return LoopSubtype.N2_A2B1, _last_scg_pscell(records, t_off)
    return LoopSubtype.UNKNOWN, None


def _last_scg_pscell(records: list[Record], t_off: float) -> CellIdentity | None:
    """The PSCell of the most recent SCG configuration before an OFF."""
    last = None
    for record in records:
        if record.time_s > t_off + _TRIGGER_WINDOW_AFTER_S:
            break
        if isinstance(record, RrcReconfigurationRecord) \
                and record.scg_pscell is not None:
            last = record.scg_pscell
    return last


def classify_off_transition(records: list[Record],
                            intervals: list[CellSetInterval],
                            t_off: float,
                            t_off_end: float | None = None) -> LoopSubtype:
    """Classify the trigger of one 5G-OFF transition (sub-type only)."""
    subtype, _cell = classify_off_transition_cell(records, intervals, t_off,
                                                  t_off_end)
    return subtype


def off_transition_times(intervals: list[CellSetInterval]) -> list[float]:
    """Times at which 5G turned OFF (excluding an OFF start of trace)."""
    return [start for start, _end in off_periods(intervals)]


def off_periods(intervals: list[CellSetInterval]) -> list[tuple[float, float]]:
    """(start, end) of every OFF period that follows an ON period."""
    segments = five_g_timeline(intervals)
    periods = []
    for index in range(1, len(segments)):
        if not segments[index][0] and segments[index - 1][0]:
            periods.append((segments[index][1], segments[index][2]))
    return periods


def classify_loop(records: list[Record],
                  intervals: list[CellSetInterval]) -> tuple[LoopSubtype,
                                                             list[OffTransition]]:
    """Classify every OFF transition and majority-vote the loop sub-type."""
    transitions = []
    for start, end in off_periods(intervals):
        subtype, problem_cell = classify_off_transition_cell(
            records, intervals, start, end)
        transitions.append(OffTransition(start, subtype, problem_cell))
    votes = Counter(transition.subtype for transition in transitions
                    if transition.subtype is not LoopSubtype.UNKNOWN)
    if not votes:
        return LoopSubtype.UNKNOWN, transitions
    majority = votes.most_common(1)[0][0]
    return majority, transitions


# ----------------------------------------------------------------------
# Run statistics (production: repro.core.pipeline)
# ----------------------------------------------------------------------


def _scell_modification_outcomes(records: list[Record]) -> list[ScellModOutcome]:
    """Find SCell modifications and whether each was followed by the exception.

    ``records`` is the run's already-materialized signaling record list;
    the exception lookahead walks it by index inside the 1.5 s window
    instead of slicing a fresh tail list per reconfiguration.
    """
    outcomes: list[ScellModOutcome] = []
    n_records = len(records)
    for index, record in enumerate(records):
        if not isinstance(record, RrcReconfigurationRecord):
            continue
        if record.is_handover or record.adds_scg or record.release_scg:
            continue
        if not (record.scell_add_mod and record.scell_release_indices):
            continue
        failed = False
        cutoff = record.time_s + 1.5
        later_index = index + 1
        while later_index < n_records:
            later = records[later_index]
            if later.time_s > cutoff:
                break
            if isinstance(later, MmStateRecord) and later.state == "DEREGISTERED":
                failed = True
                break
            later_index += 1
        for entry in record.scell_add_mod:
            outcomes.append(ScellModOutcome(channel=entry.identity.channel,
                                            failed=failed))
    return outcomes


def _collect_measurement_stats(records: list[Record],
                               analysis: RunAnalysis) -> None:
    """Tally observed cells, RSRP samples, and per-channel serving RSRP.

    Reports timestamped before the first interval carry no known
    serving set — they still count toward ``observed_cells`` and
    ``n_rsrp_samples`` but must not be attributed to the first
    interval's cells (that inflates ``serving_nr_rsrp``, Figure 17).
    """
    serving_now: frozenset[CellIdentity] | set[CellIdentity] = set()
    interval_index = 0
    intervals = analysis.intervals
    for record in records:
        if not isinstance(record, MeasurementReportRecord):
            continue
        while interval_index < len(intervals) - 1 and \
                intervals[interval_index].end_s <= record.time_s:
            interval_index += 1
        if not intervals or record.time_s < intervals[0].start_s:
            serving_now = set()
        else:
            serving_now = intervals[interval_index].cellset.all_cells()
        for measurement in record.measurements:
            analysis.observed_cells.add(measurement.identity)
            analysis.n_rsrp_samples += 1
            identity = measurement.identity
            if identity.rat is Rat.NR and identity in serving_now:
                analysis.serving_nr_rsrp.setdefault(identity.channel, []).append(
                    measurement.rsrp_dbm)


# ----------------------------------------------------------------------
# The whole pipeline (production: repro.core.pipeline.analyze_trace)
# ----------------------------------------------------------------------


def analyze_trace(trace: SignalingTrace) -> RunAnalysis:
    """The per-record pipeline: the oracles above, called in the shape
    ``analyze_trace`` had before the columnar data plane (one record
    materialization, per-record two-pointer merges and cursors)."""
    records = trace.signaling_records()
    end_time = trace.records[-1].time_s if trace.records else 0.0
    intervals = extract_cellset_sequence(records, end_time_s=end_time)
    detection = detect_loop(intervals)
    if detection.is_loop:
        subtype, transitions = classify_loop(records, intervals)
        cycles = loop_cycles(intervals, loop_window(intervals, detection))
    else:
        subtype, transitions, cycles = LoopSubtype.UNKNOWN, [], []
    analysis = RunAnalysis(
        metadata=trace.metadata,
        intervals=intervals,
        detection=detection,
        subtype=subtype,
        transitions=transitions,
        cycles=cycles,
        performance=run_performance(intervals, trace.throughput_series()),
        scg_meas_delays=scg_measurement_delays(records),
        scell_mods=_scell_modification_outcomes(records),
        duration_s=trace.duration_s,
        n_cs_samples=len(intervals),
    )
    for interval in intervals:
        analysis.unique_cellsets.add(interval.cellset)
    for cellset in analysis.unique_cellsets:
        for cell in cellset.all_cells():
            analysis.observed_cells.add(cell)
            if cell.rat is Rat.NR:
                analysis.serving_nr_channels.add(cell.channel)
            else:
                analysis.serving_lte_channels.add(cell.channel)
    _collect_measurement_stats(records, analysis)
    return analysis
