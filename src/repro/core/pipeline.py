"""End-to-end analysis of one run: trace -> RunAnalysis.

``analyze_trace`` is the single entry point the campaign harness and the
benchmarks use: it replays the signaling records into cell set
intervals, runs loop detection and classification, computes performance
metrics, and gathers the bookkeeping statistics (unique cells, cell
sets, RSRP sample counts, SCell modification outcomes) that feed
Table 3, Table 5 and Figures 17-19.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cells.cell import CellIdentity, Rat
from repro.core.cellset import CellSet, CellSetInterval, extract_cellset_sequence
from repro.core.classify import LoopSubtype, OffTransition, classify_loop
from repro.core.columnar import IntervalColumns, RecordColumns
from repro.core.deadline import check_deadline
from repro.core.loops import LoopDetection, LoopKind, detect_loop, loop_window
from repro.core.metrics import (
    CycleMetrics,
    RunPerformance,
    loop_cycles,
    run_performance,
    scg_measurement_delays,
)
from repro.obs import get_instrumentation
from repro.traces.log import SignalingTrace, TraceMetadata


@dataclass(frozen=True)
class ScellModOutcome:
    """One SCell modification attempt: the added cell's channel + outcome."""

    channel: int
    failed: bool


@dataclass
class RunAnalysis:
    """Everything the paper's figures need to know about one run."""

    metadata: TraceMetadata
    intervals: list[CellSetInterval]
    detection: LoopDetection
    subtype: LoopSubtype
    transitions: list[OffTransition]
    cycles: list[CycleMetrics]
    performance: RunPerformance
    scg_meas_delays: list[float]
    scell_mods: list[ScellModOutcome]
    serving_nr_channels: set[int] = field(default_factory=set)
    serving_lte_channels: set[int] = field(default_factory=set)
    observed_cells: set[CellIdentity] = field(default_factory=set)
    unique_cellsets: set[CellSet] = field(default_factory=set)
    n_rsrp_samples: int = 0
    n_cs_samples: int = 0
    duration_s: float = 0.0
    # RSRP of serving cells per NR channel (for the Figure 17 analysis).
    serving_nr_rsrp: dict[int, list[float]] = field(default_factory=dict)

    @property
    def has_loop(self) -> bool:
        return self.detection.is_loop

    @property
    def loop_kind(self) -> LoopKind:
        return self.detection.kind


def _scell_modification_outcomes(
        columns: RecordColumns) -> list[ScellModOutcome]:
    """Find SCell modifications and whether each was followed by the exception.

    The exception lookahead is one ``searchsorted`` into the
    DEREGISTERED line indices: the first DEREGISTERED after the
    reconfiguration (record order) is the earliest one, so it alone
    decides whether the exception fell inside the 1.5 s window — any
    earlier record past the cutoff would also place that DEREGISTERED
    past the cutoff (times are non-decreasing).
    """
    outcomes: list[ScellModOutcome] = []
    dereg_t = columns.dereg_t
    dereg_index = columns.dereg_sig_index
    for position, record in enumerate(columns.scellmod):
        if record.is_handover or record.adds_scg or record.release_scg:
            continue
        after = int(np.searchsorted(dereg_index,
                                    columns.scellmod_sig_index[position],
                                    side="right"))
        failed = bool(after < dereg_t.size
                      and dereg_t[after] <= record.time_s + 1.5)
        for entry in record.scell_add_mod:
            outcomes.append(ScellModOutcome(channel=entry.identity.channel,
                                            failed=failed))
    return outcomes


def _collect_measurement_stats(rcolumns: RecordColumns,
                               icolumns: IntervalColumns,
                               analysis: RunAnalysis) -> None:
    """Tally observed cells, RSRP samples, and per-channel serving RSRP.

    Each report's serving set is the interval it falls in: one
    ``searchsorted`` of the report times into the interval ends (sans
    the last, which absorbs every later report).  Reports timestamped
    before the first interval carry no known serving set — they still
    count toward ``observed_cells`` and ``n_rsrp_samples`` but must not
    be attributed to the first interval's cells (that inflates
    ``serving_nr_rsrp``, Figure 17).  Cell-set membership is resolved
    per *unique* cell set, not per report.
    """
    intervals_present = icolumns.start.size > 0
    empty_serving: frozenset[CellIdentity] = frozenset()
    serving_cache = [cellset.all_cells() for cellset in icolumns.cellsets]
    if intervals_present:
        indices = np.searchsorted(icolumns.end[:-1], rcolumns.meas_t,
                                  side="right")
        pre_timeline = rcolumns.meas_t < icolumns.start[0]
    observed = analysis.observed_cells
    serving_nr_rsrp = analysis.serving_nr_rsrp
    for position, record in enumerate(rcolumns.meas_reports):
        if not intervals_present or pre_timeline[position]:
            serving_now = empty_serving
        else:
            serving_now = serving_cache[
                icolumns.cellset_id[indices[position]]]
        for measurement in record.measurements:
            identity = measurement.identity
            observed.add(identity)
            analysis.n_rsrp_samples += 1
            if identity.rat is Rat.NR and identity in serving_now:
                serving_nr_rsrp.setdefault(identity.channel, []).append(
                    measurement.rsrp_dbm)


def assemble_analysis(metadata: TraceMetadata,
                      rcolumns: RecordColumns,
                      icolumns: IntervalColumns,
                      intervals: list[CellSetInterval],
                      detection: LoopDetection,
                      duration_s: float) -> RunAnalysis:
    """Classify + metrics + stats: the analysis stages past detection."""
    registry = get_instrumentation().registry
    with registry.timer("stage_seconds", stage="classify"):
        if detection.is_loop:
            subtype, transitions = classify_loop(rcolumns, icolumns)
        else:
            subtype, transitions = LoopSubtype.UNKNOWN, []
    check_deadline("classify")
    with registry.timer("stage_seconds", stage="loop_metrics"):
        cycles = loop_cycles(icolumns, loop_window(intervals, detection)) \
            if detection.is_loop else []
        performance = run_performance(rcolumns, icolumns)
    check_deadline("loop_metrics")

    analysis = RunAnalysis(
        metadata=metadata,
        intervals=intervals,
        detection=detection,
        subtype=subtype,
        transitions=transitions,
        cycles=cycles,
        performance=performance,
        scg_meas_delays=scg_measurement_delays(rcolumns),
        scell_mods=_scell_modification_outcomes(rcolumns),
        duration_s=duration_s,
        n_cs_samples=len(intervals),
    )
    with registry.timer("stage_seconds", stage="collect_stats"):
        analysis.unique_cellsets.update(icolumns.cellsets)
        for cellset in icolumns.cellsets:
            for cell in cellset.all_cells():
                analysis.observed_cells.add(cell)
                if cell.rat is Rat.NR:
                    analysis.serving_nr_channels.add(cell.channel)
                else:
                    analysis.serving_lte_channels.add(cell.channel)
        _collect_measurement_stats(rcolumns, icolumns, analysis)
    return analysis


def analyze_trace(trace: SignalingTrace) -> RunAnalysis:
    """Run the full analysis pipeline on one signaling trace.

    Each stage reports a ``stage_seconds`` timer and a span into the
    active instrumentation (see :mod:`repro.obs`); with the default
    no-op bundle these are empty calls and the stage structure is
    unchanged.  Between stages the ambient run deadline is checked
    cooperatively (see :mod:`repro.core.deadline`), so a run that blows
    its wall-clock budget raises :class:`RunTimeoutError` at the next
    stage boundary instead of running to completion.
    """
    obs = get_instrumentation()
    registry = obs.registry
    with obs.tracer.span("analyze", operator=trace.metadata.operator,
                         area=trace.metadata.area,
                         location=trace.metadata.location):
        end_time = trace.records[-1].time_s if trace.records else 0.0
        with registry.timer("stage_seconds", stage="extract_cellsets"):
            rcolumns = RecordColumns.from_trace(trace)
            intervals = extract_cellset_sequence(rcolumns.signaling,
                                                 end_time_s=end_time)
            icolumns = IntervalColumns.from_intervals(intervals)
        check_deadline("extract_cellsets")
        with registry.timer("stage_seconds", stage="detect_loop"):
            detection = detect_loop(intervals)
        check_deadline("detect_loop")
        analysis = assemble_analysis(trace.metadata, rcolumns, icolumns,
                                     intervals, detection, trace.duration_s)
        registry.counter("pipeline_runs_analyzed_total").inc()
        if detection.is_loop:
            registry.counter("pipeline_loops_detected_total").inc(
                kind=detection.kind.value)
            registry.counter("pipeline_loop_subtype_total").inc(
                subtype=analysis.subtype.value)
    return analysis
