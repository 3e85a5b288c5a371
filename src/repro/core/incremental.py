"""Online (record-at-a-time) loop analysis for live device streams.

``analyze_trace`` needs the whole trace before it says anything; a
fleet-scale ingest service (see :mod:`repro.serve`) needs a verdict
*while* the stream is open.  :class:`IncrementalAnalyzer` provides it:
it feeds records through a streaming
:class:`~repro.core.cellset.CellSetSequenceBuilder` and the one loop
detector, :class:`~repro.core.loops.IncrementalLoopDetector` (defined
in :mod:`repro.core.loops` and re-exported here), with a ``horizon``
ring bounding its memory.  Batch ``detect_loop`` runs the same
detector, unbounded, so a stream's verdict is the batch verdict by
construction whenever its dedup sequence fits the horizon.

Only *stable* intervals are published to the detector: the cell-set
builder may still reabsorb its most recent interval on a same-timestamp
state change, so an interval enters the dedup sequence once the stream
clock has strictly passed its end, and is dropped from the builder once
published.  The analyzer retains no records or intervals at all —
per-stream state is the tracker, the dedup ring and a handful of
counters — and :meth:`~IncrementalAnalyzer.finalize` returns a compact
:class:`StreamVerdict` whose detection, record count, dedup length and
duration equal batch ``analyze_trace``'s on the same records
(Hypothesis-gated in ``tests/test_core_incremental.py``).

Out-of-order records (live streams deliver them; batch traces cannot)
are handled here and only here, in :meth:`IncrementalAnalyzer._admit`,
before any downstream builder sees them: ``on_disorder="strict"``
raises :class:`~repro.resilience.errors.OutOfOrderRecordError` (the
batch pipeline's rule), ``"recover"`` clamps the record to the running
maximum time and counts it (``records_out_of_order_total``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.core.cellset import _TIME_TOLERANCE_S, CellSetSequenceBuilder
from repro.core.loops import IncrementalLoopDetector, LoopDetection
from repro.traces.records import Record, ThroughputSampleRecord

__all__ = [
    "IncrementalAnalyzer",
    "IncrementalLoopDetector",
    "StreamVerdict",
    "check_disorder_mode",
]

#: ``on_event`` callback signature: ``callback(name, **fields)``.
EventCallback = Callable[..., None]


def check_disorder_mode(on_disorder: str) -> None:
    """Refuse an ``on_disorder`` mode other than ``"strict"`` and
    ``"recover"`` (``ValueError``).  The analyzer checks it when built;
    the stream server when configured, before any stream opens."""
    if on_disorder not in ("strict", "recover"):
        raise ValueError(f"unknown on_disorder mode: {on_disorder!r}")


@dataclass(frozen=True)
class StreamVerdict:
    """What :meth:`IncrementalAnalyzer.finalize` returns."""

    detection: LoopDetection
    records: int
    dedup_elements: int
    records_out_of_order: int
    duration_s: float

    def to_dict(self) -> dict:
        return {
            "kind": self.detection.kind.value,
            "start_index": self.detection.start_index,
            "period": self.detection.period,
            "repetitions": self.detection.repetitions,
            "records": self.records,
            "dedup_elements": self.dedup_elements,
            "records_out_of_order": self.records_out_of_order,
            "duration_s": self.duration_s,
        }


class IncrementalAnalyzer:
    """Record-at-a-time loop detection over one device stream.

    Keeps only bounded state (tracker + dedup ring + counters): with a
    ``horizon`` set, per-stream memory is O(horizon + distinct cell
    sets) regardless of stream length.

    ``on_event`` (optional) receives live detector transitions:
    ``loop_onset`` (first loop detected), ``loop_update`` (an earlier /
    shorter periodic block took over), ``loop_end`` (the periodic
    region closed — the loop is now at best semi-persistent).  Each
    event carries the stream clock and the current detection shape.
    """

    def __init__(self, *, min_repetitions: int = 2,
                 horizon: int | None = None,
                 on_disorder: str = "strict",
                 on_event: EventCallback | None = None) -> None:
        check_disorder_mode(on_disorder)
        self._strict = on_disorder == "strict"
        self._cells = CellSetSequenceBuilder()
        self.detector = IncrementalLoopDetector(
            min_repetitions=min_repetitions, horizon=horizon)
        self._on_event = on_event
        self._last_best: tuple[int, int] | None = None
        self._last_open = False
        self.records_fed = 0
        self.records_out_of_order = 0
        self._first_time = 0.0       # raw time of the first record
        self._end_time = 0.0         # raw time of the latest record
        self._max_time = 0.0         # running max (ordering watermark)
        self._finalized = False

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _admit(self, record: Record) -> Record:
        """Ordering policy: raise, clamp-and-count, or pass through."""
        time_s = record.time_s
        if self.records_fed and time_s < self._max_time - _TIME_TOLERANCE_S:
            if self._strict:
                from repro.resilience.errors import OutOfOrderRecordError
                raise OutOfOrderRecordError(
                    f"record at t={time_s} precedes stream tail "
                    f"t={self._max_time}",
                    record_kind=getattr(record, "kind", None))
            self.records_out_of_order += 1
            from repro.obs import get_instrumentation
            get_instrumentation().registry.counter(
                "records_out_of_order_total").inc()
            record = dataclasses.replace(record, time_s=self._max_time)
            time_s = self._max_time
        if not self.records_fed:
            self._first_time = time_s
            self._max_time = time_s
        elif time_s > self._max_time:
            self._max_time = time_s
        self._end_time = time_s
        return record

    def feed(self, record: Record) -> None:
        """Ingest one record (raises after :meth:`finalize`)."""
        if self._finalized:
            raise RuntimeError("stream already finalized")
        record = self._admit(record)
        self.records_fed += 1
        if isinstance(record, ThroughputSampleRecord):
            return
        self._cells.push(record)
        self._publish_stable()
        self._emit_transitions()

    def _publish_stable(self) -> None:
        """Feed the detector every interval the stream clock has passed.

        The builder may still reabsorb its most recent interval on a
        same-timestamp state change, so only intervals with
        ``end_s < last_time_s`` (strictly) are final — published
        intervals are never retracted, hence neither are events.
        """
        intervals = self._cells.intervals
        cutoff = self._cells.last_time_s
        published = 0
        detector = self.detector
        while published < len(intervals) \
                and intervals[published].end_s < cutoff:
            interval = intervals[published]
            detector.push(interval.cellset, interval.start_s, interval.end_s)
            published += 1
        if published:
            # The stream never looks back: drop published intervals so
            # per-stream memory stays bounded by the dedup ring alone.
            del intervals[:published]

    # ------------------------------------------------------------------
    # Live events
    # ------------------------------------------------------------------

    def _emit_transitions(self) -> None:
        if self._on_event is None:
            return
        detector = self.detector
        best = detector.best
        open_ = detector.best_open
        if best != self._last_best:
            name = "loop_onset" if self._last_best is None else "loop_update"
            self._last_best = best
            self._last_open = open_
            self._emit(name)
        elif best is not None and self._last_open and not open_:
            self._last_open = open_
            self._emit("loop_end")

    def _emit(self, name: str) -> None:
        detection = self.detector.detection()
        self._on_event(
            name,
            time_s=self._end_time,
            kind=detection.kind.value,
            start_index=detection.start_index,
            period=detection.period,
            repetitions=detection.repetitions,
            window_start_s=self.detector.window_start_s,
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def detection(self) -> LoopDetection:
        """The live verdict over the published (stable) prefix."""
        return self.detector.detection()

    def finalize(self, end_time_s: float | None = None) -> StreamVerdict:
        """Flush pending state and return the stream's verdict.

        ``end_time_s`` extends the final interval past the last record,
        exactly like ``extract_cellset_sequence``'s parameter (the batch
        pipeline passes the last record's time, which is the default
        here).
        """
        if self._finalized:
            raise RuntimeError("stream already finalized")
        self._finalized = True
        if end_time_s is None and self.records_fed:
            end_time_s = self._end_time
        detector = self.detector
        for interval in self._cells.finish(end_time_s):
            detector.push(interval.cellset, interval.start_s, interval.end_s)
        self._emit_transitions()
        return StreamVerdict(
            detection=detector.detection(),
            records=self.records_fed,
            dedup_elements=len(detector),
            records_out_of_order=self.records_out_of_order,
            duration_s=self._end_time - self._first_time
            if self.records_fed else 0.0,
        )
