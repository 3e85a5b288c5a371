"""Per-worker durable telemetry spools under ``<queue-dir>/telemetry/``.

A queue worker's metrics, spans, and events used to exist only in its
process memory until the coordinator merged its completion payloads —
so a SIGKILLed worker took its partial telemetry with it, and the run
it was holding reappeared (stolen, re-executed) with no trace of the
first attempt.  The spool closes that gap: each worker appends frames
to its own ``<worker_id>.tspool`` file, one CRC-framed line each (the
checkpoint's line format), so whatever was flushed before the kill
survives on disk, attributable to the victim.

**Frame types** (one JSON object per CRC-framed line)::

    <crc32> {"t": "meta",    "session": s, "worker": w, "pid": p, ...}
    <crc32> {"t": "events",  "session": s, "events":  [event dicts]}
    <crc32> {"t": "spans",   "session": s, "spans":   [span dicts]}
    <crc32> {"t": "metrics", "session": s, "mono_s": m, "snapshot": {...}}

* ``session`` identifies one process incarnation of the worker
  (pid + wall-clock start), so a restarted worker appending to its old
  spool cannot be confused with its previous life.
* ``events``/``spans`` frames are *incremental* — each event and span
  appears in exactly one frame — so aggregation is append-fold, no
  dedup needed within a session.
* ``metrics`` frames carry the worker's *cumulative* registry
  snapshot; the latest frame per session wins (earlier ones are
  superseded), which makes re-reading and partial tails harmless.

Durability is ``flush``-only by default (``fsync=False``): the frames
survive SIGKILL — the failure mode workers actually have — without
paying a per-flush fsync on the campaign hot path; pass ``fsync=True``
for power-loss durability.  A torn tail (the line a killed previous
incarnation was mid-append on) is never read as a line and is
terminated before the next session's meta frame, and a line that is
not a CRC-valid JSON object — or a frame, event, span or metrics
snapshot without the types the writer gives it — is skipped and
counted, as in the checkpoint loader (:mod:`repro.resilience.framing`
does both).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.context import Instrumentation
from repro.obs.events import Event
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span
from repro.resilience.framing import (
    LineReader,
    append_lines,
    frame_object,
    load_framed_line,
)

__all__ = [
    "SpoolContent",
    "TelemetrySpool",
    "fold_frames",
    "read_spool",
    "read_spool_frames",
]

#: Subdirectory of a queue dir that holds the per-worker spools.
TELEMETRY_DIRNAME = "telemetry"

SPOOL_SUFFIX = ".tspool"


class TelemetrySpool:
    """One worker's append-only telemetry file.

    Single-writer by construction (worker ids are unique per queue
    dir), so no locking; concurrent readers only ever consume complete,
    CRC-valid lines.
    """

    def __init__(self, directory: str | Path, worker_id: str,
                 campaign: str | None = None, fsync: bool = False,
                 clock: Callable[[], float] = time.monotonic,
                 wall_clock: Callable[[], float] = time.time):
        self.directory = Path(directory)
        self.worker_id = worker_id
        self.campaign = campaign
        self.fsync = fsync
        self._clock = clock
        self._wall_clock = wall_clock
        self.path = self.directory / f"{worker_id}{SPOOL_SUFFIX}"
        self.session: str | None = None
        self._events_seq = 0
        self._spans_taken = 0
        self._last_snapshot: dict | None = None
        self.frames_written = 0

    def open(self) -> None:
        """Create the directory and append this session's meta frame
        (after any torn tail a previous incarnation left)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        wall = self._wall_clock()
        self.session = f"{os.getpid()}-{int(wall * 1000):x}"
        meta = {"t": "meta", "session": self.session,
                "worker": self.worker_id, "pid": os.getpid(),
                "wall_s": round(wall, 6), "mono_s": round(self._clock(), 6)}
        if self.campaign is not None:
            meta["campaign"] = self.campaign
        append_lines(self.path, [frame_object(meta, sort_keys=True)],
                     fsync=self.fsync)
        self.frames_written += 1

    def flush(self, obs: Instrumentation) -> int:
        """Append everything new in ``obs`` since the last flush.

        Returns the number of frames written (0 == nothing new).
        Events and spans are drained incrementally; the metrics frame
        repeats the full cumulative snapshot (latest-wins downstream).
        Safe to call from the lease-heartbeat thread while the main
        thread emits events.
        """
        if self.session is None:
            self.open()
        frames: list[dict[str, Any]] = []
        if obs.events.enabled:
            fresh = obs.events.since(self._events_seq)
            if fresh:
                frames.append({"t": "events", "session": self.session,
                               "events": [e.to_dict() for e in fresh]})
                self._events_seq = fresh[-1].seq
        if obs.tracer.enabled:
            finished = obs.tracer.finished
            if len(finished) > self._spans_taken:
                batch = finished[self._spans_taken:]
                frames.append({"t": "spans", "session": self.session,
                               "spans": [s.to_dict() for s in batch]})
                self._spans_taken += len(batch)
        if obs.registry.enabled:
            snapshot = obs.registry.snapshot()
            # Cumulative but deduplicated: an unchanged registry writes
            # no frame, so idle heartbeat flushes cost zero bytes.
            if any(snapshot.values()) and snapshot != self._last_snapshot:
                frames.append({"t": "metrics", "session": self.session,
                               "mono_s": round(self._clock(), 6),
                               "snapshot": snapshot})
                self._last_snapshot = snapshot
        if not frames:
            return 0
        append_lines(self.path,
                     [frame_object(frame, sort_keys=True) for frame in frames],
                     fsync=self.fsync)
        self.frames_written += len(frames)
        return len(frames)


# ----------------------------------------------------------------------
# Reading side (aggregator, tests)
# ----------------------------------------------------------------------


def read_spool_frames(path: str | Path, offset: int = 0,
                      ) -> tuple[list[dict], int, int, bool]:
    """Tail a spool file from ``offset`` (bytes).

    Returns ``(frames, new_offset, skipped, torn)``.  Only complete,
    newline-terminated lines are consumed — ``new_offset`` stops before
    a torn tail, so an aggregator polling a live spool picks the rest
    up next refresh.  ``torn`` reports whether a partial tail exists
    right now; ``skipped`` counts complete lines that are not a
    CRC-valid JSON object with a ``t`` field (real corruption, not
    in-flight appends).
    """
    lines = LineReader(path, offset)
    frames: list[dict] = []
    skipped = 0
    for line in lines:
        if not line.strip():
            continue
        frame = load_framed_line(line)
        if frame is not None and "t" in frame:
            frames.append(frame)
        else:
            skipped += 1
    return frames, lines.offset, skipped, lines.torn


@dataclass
class SpoolContent:
    """One spool file folded down to its latest coherent state."""

    worker: str | None = None
    #: Meta frames in append order — one per process incarnation.
    sessions: list[dict] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    #: session → latest cumulative registry snapshot (latest-wins).
    metrics: dict[str, dict] = field(default_factory=dict)
    frames_total: int = 0
    skipped: int = 0
    torn: bool = False

    @property
    def latest_session(self) -> str | None:
        return self.sessions[-1]["session"] if self.sessions else None


def fold_frames(content: SpoolContent, frames: list[dict]) -> SpoolContent:
    """Fold freshly read frames into ``content`` (idempotent per frame:
    each frame must be folded exactly once — offsets guarantee that).

    Only well-typed pieces are folded: a frame without a string
    ``session``, a meta frame whose ``worker`` is not a string, an
    events/spans frame whose records are not a list, each event or
    span record that does not decode, and a metrics snapshot that
    :meth:`MetricsRegistry.merge` refuses are counted in ``skipped``.
    """
    for frame in frames:
        kind, session = frame.get("t"), frame.get("session")
        content.frames_total += 1
        if not isinstance(session, str) or kind == "meta" and not \
                isinstance(frame.get("worker"), (str, type(None))):
            content.skipped += 1
        elif kind == "meta":
            content.sessions.append(frame)
            if content.worker is None:
                content.worker = frame.get("worker")
        elif kind in ("events", "spans"):
            records = frame.get(kind)
            if not isinstance(records, list):
                content.skipped += 1
                continue
            decode = Event.from_dict if kind == "events" else Span.from_dict
            folded = content.events if kind == "events" else content.spans
            for record in records:
                try:
                    folded.append(decode(record))
                except (KeyError, TypeError, ValueError, OverflowError):
                    content.skipped += 1
        elif kind == "metrics":
            snapshot = frame.get("snapshot")
            try:
                MetricsRegistry().merge(snapshot)  # the shape check
            except ValueError:
                content.skipped += 1
                continue
            content.metrics[session] = snapshot
        else:
            content.skipped += 1
    return content


def read_spool(path: str | Path) -> SpoolContent:
    """One-shot read of a whole spool (tests, post-mortem tooling)."""
    frames, _, skipped, torn = read_spool_frames(path)
    content = fold_frames(SpoolContent(), frames)
    content.skipped += skipped
    content.torn = torn
    return content
