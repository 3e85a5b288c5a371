"""Structured campaign events: the third leg of the telemetry plane.

Metrics say *how much*, spans say *how long*; events say *what
happened* — a claim, a steal, a retry, a quarantine, a breaker trip —
with enough correlation to tie the line back to a campaign, a run, a
worker, and a lease generation:

* ``campaign`` — the 8-hex campaign identity hash
  (:meth:`CampaignRunner.campaign_identity`),
* ``run_key`` — the ``(operator, area, location, run)`` tuple,
* ``worker`` — the queue worker id (or pool worker pid),
* ``token`` — the lease fencing token, so two events about the same
  run key from different lease generations are distinguishable.

:class:`EventLog` is the in-process collector: a bounded ring buffer
(JSONL-exportable) plus fan-out sinks.  Sinks make the log a routing
point rather than a destination — the CLI attaches a
:class:`StderrEventSink` for ``--log-level``/``--log-json``, the queue
worker's telemetry spool drains fresh events to disk, and tests attach
plain lists.  Like the other layers, the null instance
(:data:`NULL_EVENTS`) makes ``emit()`` a no-op so uninstrumented hot
paths pay one attribute read.

The stdlib-``logging`` bridge (:func:`attach_logging_bridge`) captures
the pre-existing ad-hoc ``logger.warning`` calls in the resilience
layer into the same stream, so one ``--log-level`` flag governs both.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, IO

__all__ = [
    "Event",
    "EventLog",
    "NULL_EVENTS",
    "NullEventLog",
    "SEVERITIES",
    "StderrEventSink",
    "attach_logging_bridge",
    "parse_events_jsonl",
]

#: Severity names in escalation order, mapped to comparable ranks.
SEVERITIES = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def severity_rank(severity: str) -> int:
    """Rank for ordering; unknown severities compare as ``info``."""
    return SEVERITIES.get(severity, SEVERITIES["info"])


@dataclass
class Event:
    """One structured occurrence, timestamped on both clocks.

    ``wall_s`` localizes the event for humans and cross-host merges;
    ``mono_s`` orders it against spans and metrics samples from the
    same process.  ``seq`` is per-log monotonic and, combined with the
    emitting worker's spool session, makes events deduplicable after
    aggregation replays.
    """

    name: str
    severity: str = "info"
    seq: int = 0
    wall_s: float = 0.0
    mono_s: float = 0.0
    campaign: str | None = None
    worker: str | None = None
    run_key: tuple | None = None
    token: int | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "name": self.name,
            "severity": self.severity,
            "seq": self.seq,
            "wall_s": round(self.wall_s, 6),
            "mono_s": round(self.mono_s, 6),
        }
        if self.campaign is not None:
            record["campaign"] = self.campaign
        if self.worker is not None:
            record["worker"] = self.worker
        if self.run_key is not None:
            record["run_key"] = list(self.run_key)
        if self.token is not None:
            record["token"] = self.token
        if self.fields:
            record["fields"] = self.fields
        return record

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "Event":
        """Rebuild an event from :meth:`to_dict` output.

        Raises ``ValueError`` when a field does not have the type
        :meth:`to_dict` gives it, so readers can skip the record.
        """
        if not isinstance(record, dict):
            raise ValueError("an event record must be an object")
        event = cls(
            name=record.get("name"),
            severity=record.get("severity", "info"),
            seq=record.get("seq", 0),
            wall_s=record.get("wall_s", 0.0),
            mono_s=record.get("mono_s", 0.0),
            campaign=record.get("campaign"),
            worker=record.get("worker"),
            run_key=record.get("run_key"),
            token=record.get("token"),
            fields=record.get("fields", {}),
        )
        if not (isinstance(event.name, str)
                and isinstance(event.severity, str)
                and all(isinstance(value, (int, float)) for value
                        in (event.seq, event.wall_s, event.mono_s))
                and isinstance(event.run_key, (list, type(None)))
                and isinstance(event.fields, dict)):
            raise ValueError("malformed event record")
        if event.run_key is not None:
            event.run_key = tuple(event.run_key)
        return event

    def render(self) -> str:
        """One human-readable line (the non-JSON stderr format)."""
        try:
            stamp = time.strftime("%H:%M:%S", time.localtime(self.wall_s))
        except (OverflowError, OSError, ValueError):  # outside time_t
            stamp = "--:--:--"
        parts = [stamp, f"{self.severity.upper():<7}", self.name]
        if self.worker:
            parts.append(f"worker={self.worker}")
        if self.run_key:
            parts.append("key=" + "/".join(str(p) for p in self.run_key))
        if self.token is not None:
            parts.append(f"token={self.token}")
        parts.extend(f"{k}={v}" for k, v in self.fields.items())
        return " ".join(parts)


class EventLog:
    """Bounded in-memory event collector with fan-out sinks.

    Thread-safe: the queue worker's lease-heartbeat thread flushes the
    telemetry spool (draining fresh events) while the main thread is
    still emitting them.
    """

    enabled = True

    def __init__(self,
                 clock: Callable[[], float] = time.monotonic,
                 wall_clock: Callable[[], float] = time.time,
                 capacity: int = 2048):
        self._clock = clock
        self._wall_clock = wall_clock
        self._buffer: deque[Event] = deque(maxlen=capacity)
        self._sinks: list[Callable[[Event], None]] = []
        self._bound: dict[str, Any] = {}
        self._next_seq = 1
        self._lock = threading.Lock()

    # -- emission ------------------------------------------------------

    def bind(self, **correlation: Any) -> None:
        """Set default correlation fields (``campaign=``, ``worker=``)
        stamped onto every subsequent event; ``None`` unbinds."""
        with self._lock:
            for key, value in correlation.items():
                if value is None:
                    self._bound.pop(key, None)
                else:
                    self._bound[key] = value

    def add_sink(self, sink: Callable[[Event], None]) -> None:
        self._sinks.append(sink)

    def emit(self, name: str, severity: str = "info", *,
             run_key: tuple | None = None, token: int | None = None,
             worker: str | None = None, **fields: Any) -> Event:
        with self._lock:
            event = Event(
                name=name,
                severity=severity,
                seq=self._next_seq,
                wall_s=self._wall_clock(),
                mono_s=self._clock(),
                campaign=self._bound.get("campaign"),
                worker=worker if worker is not None
                else self._bound.get("worker"),
                run_key=run_key,
                token=token,
                fields=fields,
            )
            self._next_seq += 1
            self._buffer.append(event)
        for sink in self._sinks:
            sink(event)
        return event

    # -- reading -------------------------------------------------------

    def recent(self, limit: int = 50,
               min_severity: str = "debug") -> list[Event]:
        """The newest ``limit`` events at or above ``min_severity``."""
        floor = severity_rank(min_severity)
        with self._lock:
            kept = [event for event in self._buffer
                    if severity_rank(event.severity) >= floor]
        return kept[-limit:]

    def since(self, seq: int) -> list[Event]:
        """Events with ``seq`` strictly greater than ``seq`` still in
        the ring buffer (oldest may have been evicted)."""
        with self._lock:
            return [event for event in self._buffer if event.seq > seq]

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._next_seq - 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def to_jsonl(self) -> str:
        with self._lock:
            events = list(self._buffer)
        return "".join(json.dumps(event.to_dict(), sort_keys=True) + "\n"
                       for event in events)

    def export_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())


def parse_events_jsonl(text: str) -> list[Event]:
    """Parse events back from a JSONL export (skips blank lines)."""
    return [Event.from_dict(json.loads(line))
            for line in text.splitlines() if line.strip()]


class NullEventLog(EventLog):
    """The disabled default: ``emit`` is a no-op returning a shared
    dummy event; nothing is retained."""

    enabled = False

    def __init__(self):
        super().__init__(capacity=1)
        self._null_event = Event(name="null")

    def bind(self, **correlation: Any) -> None:
        pass

    def add_sink(self, sink: Callable[[Event], None]) -> None:
        pass

    def emit(self, name: str, severity: str = "info", *,
             run_key: tuple | None = None, token: int | None = None,
             worker: str | None = None, **fields: Any) -> Event:
        return self._null_event

    def recent(self, limit: int = 50,
               min_severity: str = "debug") -> list[Event]:
        return []

    def since(self, seq: int) -> list[Event]:
        return []


#: Shared no-op instance — the bundle default.
NULL_EVENTS = NullEventLog()


class StderrEventSink:
    """Mirror events to stderr — the ``--log-level``/``--log-json``
    surface.  Text mode renders one aligned human line per event; JSON
    mode emits the ``to_dict`` record, one object per line."""

    def __init__(self, min_severity: str = "info", json_mode: bool = False,
                 stream: IO[str] | None = None):
        self.min_rank = severity_rank(min_severity)
        self.json_mode = json_mode
        self.stream = stream

    def __call__(self, event: Event) -> None:
        if severity_rank(event.severity) < self.min_rank:
            return
        stream = self.stream if self.stream is not None else sys.stderr
        if self.json_mode:
            line = json.dumps(event.to_dict(), sort_keys=True)
        else:
            line = event.render()
        try:
            stream.write(line + "\n")
            stream.flush()
        except (OSError, ValueError):  # closed stderr: never crash a run
            pass


_LEVEL_SEVERITIES = ((logging.ERROR, "error"), (logging.WARNING, "warning"),
                     (logging.INFO, "info"), (logging.DEBUG, "debug"))


def _level_to_severity(level: int) -> str:
    for floor, severity in _LEVEL_SEVERITIES:
        if level >= floor:
            return severity
    return "debug"


class _EventLogHandler(logging.Handler):
    """Route stdlib-``logging`` records into an :class:`EventLog`."""

    def __init__(self, events: EventLog, level: int = logging.DEBUG):
        super().__init__(level=level)
        self.events = events

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self.events.emit(f"log.{record.name.rpartition('.')[2]}",
                             severity=_level_to_severity(record.levelno),
                             message=record.getMessage())
        except Exception:  # pragma: no cover - logging must never raise
            self.handleError(record)


def attach_logging_bridge(events: EventLog, logger_name: str = "repro",
                          ) -> logging.Handler:
    """Capture the package's ad-hoc ``logging`` warnings into ``events``.

    The bridged logger stops propagating (quietening the default
    last-resort stderr handler — the event sinks decide what the user
    sees) and is opened down to ``DEBUG`` so the event log, not the
    logging level, filters.  Returns the handler so callers can
    ``removeHandler`` it in tests.
    """
    bridged = logging.getLogger(logger_name)
    handler = _EventLogHandler(events)
    bridged.addHandler(handler)
    bridged.setLevel(logging.DEBUG)
    bridged.propagate = False
    return handler


def detach_logging_bridge(handler: logging.Handler,
                          logger_name: str = "repro") -> None:
    """Undo :func:`attach_logging_bridge` (tests share one process)."""
    bridged = logging.getLogger(logger_name)
    bridged.removeHandler(handler)
    bridged.propagate = True
