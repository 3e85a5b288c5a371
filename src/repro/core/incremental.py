"""Online (record-at-a-time) loop analysis for live device streams.

``analyze_trace`` needs the whole trace before it says anything; a
fleet-scale ingest service (see :mod:`repro.serve`) needs a verdict
*while* the stream is open.  This module provides the streaming core:

* :class:`IncrementalLoopDetector` — an amortized online variant of
  :func:`repro.core.loops.detect_loop`.  It maintains, per candidate
  period ``p``, the length of the maximal sequence suffix that matches
  itself at distance ``p`` (``run[p]`` — the online complement of the
  batch Z-array LCP), and exploits two facts about the batch scan:

  1. *Validity is monotone*: once a ``(start, period)`` pair repeats
     ``min_repetitions`` times it stays valid as the sequence grows
     (the batch LCP never shrinks).
  2. *A pair becomes valid at exactly one length*: ``(s, p)`` first
     satisfies ``lcp >= (min_repetitions - 1) * p`` at dedup length
     ``n = s + min_repetitions * p`` — an LCP grows only while its
     match runs to the end of the sequence, so a pair that is not valid
     the moment its window completes never becomes valid.

  Newly valid pairs at length ``n`` are therefore exactly
  ``{(n - min_repetitions * p, p) : run[p] >= (min_repetitions-1) * p}``,
  and the batch answer — the lexicographically smallest valid
  ``(start, period)`` with a state-mixed block — is a running minimum
  over those enumerations.  The winner's LCP is tracked forward with an
  open/closed flag (open == the periodic region still reaches the end
  of the sequence == the batch persistence rule), so the final
  :class:`LoopDetection` is bit-identical to ``detect_loop``.

  Memory is bounded by the ``horizon`` ring: only the last ``horizon``
  dedup elements are retained (:meth:`SpanDedup.evict`), capping the
  detectable period at ``horizon // min_repetitions``.  Equivalence
  with batch detection is guaranteed whenever the final dedup length
  fits the horizon; the winning block is materialized the moment it is
  elected, so eviction never invalidates an already-reported loop.

* :class:`IncrementalAnalyzer` — feeds records through a streaming
  :class:`~repro.core.cellset.CellSetSequenceBuilder` and the detector.
  Only *stable* intervals are published to the detector: the cell-set
  builder may still reabsorb its most recent interval on a
  same-timestamp state change, so an interval enters the dedup sequence
  once the stream clock has strictly passed its end, and is dropped
  from the builder once published.  The analyzer retains no records or
  intervals at all — per-stream state is the tracker, the dedup ring
  and a handful of counters — and :meth:`~IncrementalAnalyzer.finalize`
  returns a compact :class:`StreamVerdict` whose detection, record
  count, dedup length and duration equal batch ``analyze_trace``'s on
  the same records (Hypothesis-gated in
  ``tests/test_core_incremental.py``).

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

import numpy as np

from repro.core.cellset import (
    _TIME_TOLERANCE_S,
    CellSet,
    CellSetSequenceBuilder,
)
from repro.core.loops import (
    LoopDetection,
    LoopKind,
    SpanDedup,
    _canonical_rotation,
)
from repro.traces.records import Record, ThroughputSampleRecord

__all__ = [
    "IncrementalAnalyzer",
    "IncrementalLoopDetector",
    "StreamVerdict",
]

#: ``on_event`` callback signature: ``callback(name, **fields)``.
EventCallback = Callable[..., None]


class IncrementalLoopDetector:
    """Online :func:`~repro.core.loops.detect_loop` over a dedup stream.

    Feed deduplicated cell-set elements via :meth:`push` (one call per
    interval; consecutive equal cell sets merge into the shared
    :class:`SpanDedup`); read the current verdict via :meth:`detection`.
    Each *new* dedup element costs ``O(min(n, horizon))`` — and dedup
    elements only appear when the serving cell set actually changes, so
    the per-record amortized cost on real streams is far lower.
    """

    def __init__(self, *, min_repetitions: int = 2,
                 horizon: int | None = None) -> None:
        if min_repetitions < 1:
            raise ValueError("min_repetitions must be >= 1")
        if horizon is not None and horizon < 2 * min_repetitions:
            raise ValueError(
                f"horizon {horizon} cannot hold even one "
                f"{min_repetitions}-repetition loop of period 2")
        self.min_repetitions = min_repetitions
        self.horizon = horizon
        self._max_period = horizon // min_repetitions if horizon else None
        self.dedup = SpanDedup()
        # Interning: cell set -> small int code (+ its 5G-ON flag), so
        # all periodicity comparisons are int comparisons.
        self._codes: dict[CellSet, int] = {}
        self._code_on: list[int] = []
        # Interned codes, parallel to dedup.cellsets, as a growable
        # numpy buffer: the per-period run update below is one
        # vectorized compare over the lag window instead of a Python
        # loop (that loop dominated per-record cost at large horizons).
        self._seq = np.empty(256, dtype=np.int64)
        self._seq_len = 0                 # ring-relative element count
        self._on_prefix: list[int] = [0]  # running 5G-ON prefix sums
        self._run = np.zeros(256, dtype=np.int64)  # run[p]: match at lag p
        self._best: tuple[int, int] | None = None   # (start, period)
        self._best_lcp = 0
        self._best_open = False
        self._best_block: tuple[CellSet, ...] = ()
        self._best_window_start = 0.0

    @property
    def best(self) -> tuple[int, int] | None:
        """The current winning ``(start_index, period)`` (None: no loop)."""
        return self._best

    @property
    def best_open(self) -> bool:
        """Whether the winner's periodic region reaches the sequence end."""
        return self._best_open

    @property
    def window_start_s(self) -> float:
        """Start time of the winning periodic region (0.0 before one)."""
        return self._best_window_start

    def __len__(self) -> int:
        """Absolute dedup-sequence length (including evicted elements)."""
        return len(self.dedup)

    def push(self, cellset: CellSet, start_s: float, end_s: float) -> bool:
        """Feed one (final) interval; True when the verdict may have moved."""
        if not self.dedup.push(cellset, start_s, end_s):
            return False
        code = self._codes.get(cellset)
        if code is None:
            code = len(self._codes)
            self._codes[cellset] = code
            self._code_on.append(1 if cellset.five_g_on else 0)
        seq = self._seq
        if self._seq_len == seq.size:
            seq = np.concatenate([seq, np.empty(seq.size, dtype=np.int64)])
            self._seq = seq
        seq[self._seq_len] = code
        self._seq_len += 1
        self._on_prefix.append(self._on_prefix[-1] + self._code_on[code])

        n = len(self.dedup)
        base = self.dedup.base
        rel = n - 1 - base               # new element, ring-relative
        moved = False

        # 1. Extend the winner's LCP while its match still reaches the
        #    end of the sequence (== the batch persistence rule).
        if self._best_open:
            if seq[rel] == seq[rel - self._best[1]]:
                self._best_lcp += 1
            else:
                self._best_open = False
                moved = True

        # 2. Update the per-period suffix self-match lengths — one
        #    vectorized pass: run[p] advances when seq[rel - p] equals
        #    the new code and resets to zero otherwise.
        limit = rel if self._max_period is None \
            else min(rel, self._max_period)
        run = self._run
        if run.size <= limit:
            grown = np.zeros(max(run.size * 2, limit + 1), dtype=np.int64)
            grown[:run.size] = run
            self._run = run = grown
        if limit > 0:
            lagged = seq[rel - limit:rel][::-1]   # lagged[p-1] = seq[rel-p]
            window = run[1:limit + 1]
            window += 1
            window *= lagged == code
        # 3. Enumerate the pairs becoming valid exactly now — (s, p)
        #    with s = n - min_repetitions * p — and fold them into the
        #    running lexicographic minimum.  Only periods whose implied
        #    start can still beat the winner are inspected: s <= bs
        #    requires p >= ceil((n - bs) / min_repetitions), which
        #    shrinks the scan to O(bs / min_repetitions + 1) once any
        #    winner exists (the (s, p) >= best check stays as the exact
        #    filter; the range is purely a prune).
        min_reps = self.min_repetitions
        need = min_reps - 1
        p_hi = n // min_reps
        if self._max_period is not None and p_hi > self._max_period:
            p_hi = self._max_period
        if p_hi > rel:
            p_hi = rel
        best = self._best
        p_lo = 2 if best is None \
            else max(2, -((best[0] - n) // min_reps))
        for p in range(p_lo, p_hi + 1):
            if run[p] < need * p:
                continue
            s = n - min_reps * p
            if best is not None and (s, p) >= best:
                continue
            sp = s - base
            on_in_block = self._on_prefix[sp + p] - self._on_prefix[sp]
            if on_in_block == 0 or on_in_block == p:
                continue
            best = (s, p)
            self._elect(s, p)
            moved = True
        # 4. Ring eviction (amortized: trim half when past 2x horizon).
        if self.horizon is not None and self._seq_len > 2 * self.horizon:
            excess = self._seq_len - self.horizon
            self.dedup.evict(self.horizon)
            seq[:self.horizon] = seq[excess:self._seq_len]
            self._seq_len = self.horizon
            del self._on_prefix[:excess]
        return moved

    def _elect(self, start: int, period: int) -> None:
        """Install a new winner; materialize its block out of the ring."""
        first = start - self.dedup.base
        self._best = (start, period)
        # At election the window [start, start + min_reps * period) just
        # completed, so the LCP is exactly the repeated part and open.
        self._best_lcp = (self.min_repetitions - 1) * period
        self._best_open = True
        self._best_block = _canonical_rotation(
            self.dedup.cellsets[first:first + period])
        self._best_window_start = self.dedup.starts[first]

    def detection(self) -> LoopDetection:
        """The batch-identical :class:`LoopDetection` for the sequence
        seen so far (bit-identical to ``detect_loop`` whenever the dedup
        length fits the horizon)."""
        if self._best is None:
            return LoopDetection(kind=LoopKind.NO_LOOP)
        start, period = self._best
        kind = LoopKind.PERSISTENT if self._best_open \
            else LoopKind.SEMI_PERSISTENT
        return LoopDetection(kind=kind, start_index=start, period=period,
                             repetitions=1 + self._best_lcp // period,
                             block=self._best_block)


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
        if on_disorder not in ("strict", "recover"):
            raise ValueError(f"unknown on_disorder mode: {on_disorder!r}")
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
