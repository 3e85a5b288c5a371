"""Hierarchical tracing spans over the simulate→parse→analyze pipeline.

A :class:`Tracer` hands out context-managed :class:`Span` s that nest::

    with tracer.span("campaign", seed=0):
        with tracer.span("run", operator="OP_T", area="A1"):
            with tracer.span("simulate"):
                ...
            with tracer.span("analyze"):
                ...

Durations come from an injectable monotonic clock (never wall clock, so
they cannot go negative and tests can fake time), span ids are
sequential (deterministic), and finished spans land in an in-memory
collector exported as JSONL — one object per line, children appearing
before their parent because a span is collected when it *closes*.

An exception inside a span marks it ``status="error"`` (recording the
exception type and message as attributes) and still closes it, then
propagates; this includes ``KeyboardInterrupt``, so an interrupted
campaign leaves a complete, exportable span tree behind.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "verify_span_tree",
]


@dataclass
class Span:
    """One timed operation in the pipeline hierarchy."""

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float | None = None
    status: str = "ok"
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def closed(self) -> bool:
        return self.end_s is not None

    def set_attribute(self, name: str, value: object) -> None:
        self.attributes[name] = value

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @staticmethod
    def from_dict(data: dict) -> "Span":
        """Rebuild a span from :meth:`to_dict` output; a record without
        those fields and types raises ``KeyError``, ``TypeError``,
        ``ValueError`` or ``OverflowError``."""
        name, status = data["name"], data["status"]
        attributes = data.get("attributes", {})
        if not (isinstance(name, str) and isinstance(status, str)
                and isinstance(attributes, dict)):
            raise TypeError("malformed span record")
        return Span(name=name, span_id=int(data["span_id"]),
                    parent_id=(None if data["parent_id"] is None
                               else int(data["parent_id"])),
                    start_s=float(data["start_s"]),
                    end_s=(None if data["end_s"] is None
                           else float(data["end_s"])),
                    status=status, attributes=dict(attributes))


class _SpanContext:
    """The context manager binding one span to the tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is not None:
            self._span.status = "error"
            self._span.attributes.setdefault("error_type", exc_type.__name__)
            self._span.attributes.setdefault("error", str(exc))
        self._tracer._close(self._span)


class Tracer:
    """Create, nest and collect spans against a monotonic clock."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.finished: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    def span(self, name: str, **attributes: object) -> _SpanContext:
        """Open a child span of the currently active span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, span_id=self._next_id,
                    parent_id=parent.span_id if parent else None,
                    start_s=self.clock(), attributes=dict(attributes))
        self._next_id += 1
        self._stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        span.end_s = self.clock()
        # Close any forgotten inner spans so the tree stays well-formed.
        while self._stack and self._stack[-1] is not span:
            dangling = self._stack.pop()
            dangling.end_s = span.end_s
            dangling.status = "error"
            dangling.attributes.setdefault("error", "span never closed")
            self.finished.append(dangling)
        if self._stack:
            self._stack.pop()
        self.finished.append(span)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def adopt(self, spans: list[Span], parent: Span | None = None,
              ) -> list[Span]:
        """Re-home spans collected by another tracer (a worker process).

        Span ids are reassigned from this tracer's sequence (in the
        donor's original open order, so relative structure is
        preserved), parentless spans are re-parented under ``parent``,
        and the renumbered spans are appended to the collector in the
        donor's close order.  Timestamps are kept verbatim: they are on
        the donor process's monotonic clock, so durations stay truthful
        but cross-process span trees are not comparable on one global
        timeline (``verify_span_tree`` applies per process).
        """
        id_map: dict[int, int] = {}
        for span in sorted(spans, key=lambda span: span.span_id):
            id_map[span.span_id] = self._next_id
            self._next_id += 1
        adopted: list[Span] = []
        for span in spans:
            new_parent = (id_map[span.parent_id]
                          if span.parent_id in id_map
                          else (parent.span_id if parent else None))
            adopted.append(Span(
                name=span.name, span_id=id_map[span.span_id],
                parent_id=new_parent, start_s=span.start_s,
                end_s=span.end_s, status=span.status,
                attributes=dict(span.attributes)))
        self.finished.extend(adopted)
        return adopted

    # -- collector views ------------------------------------------------

    def spans(self) -> list[Span]:
        return list(self.finished)

    def roots(self) -> list[Span]:
        return [span for span in self.finished if span.parent_id is None]

    def children_of(self, span: Span) -> list[Span]:
        return [child for child in self.finished
                if child.parent_id == span.span_id]

    def reset(self) -> None:
        self.finished.clear()
        self._stack.clear()
        self._next_id = 1

    # -- exporters ------------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(json.dumps(span.to_dict(), sort_keys=True) + "\n"
                       for span in self.finished)

    def export_jsonl(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")


def parse_spans_jsonl(text: str) -> list[Span]:
    """Load spans back from their JSONL export (test/tooling helper)."""
    return [Span.from_dict(json.loads(line))
            for line in text.splitlines() if line.strip()]


def _processes(spans: list[Span]) -> dict[int, str | None]:
    """Span id → the process that recorded it: the ``worker_pid`` on the
    span or on its nearest ancestor (``None``: the coordinator).  A
    parent opens first, so its smaller id resolves before its children;
    a parent link against that order resolves to the coordinator."""
    processes: dict[int, str | None] = {}
    for span in sorted(spans, key=lambda span: span.span_id):
        pid = span.attributes.get("worker_pid")
        processes[span.span_id] = processes.get(span.parent_id) \
            if pid is None else repr(pid)
    return processes


def _iter_sibling_pairs(spans: list[Span], processes: dict[int, str | None],
                        ) -> Iterator[tuple[Span, Span]]:
    by_parent: dict[tuple, list[Span]] = {}
    for span in spans:
        by_parent.setdefault((span.parent_id, processes[span.span_id]),
                             []).append(span)
    for siblings in by_parent.values():
        ordered = sorted(siblings, key=lambda span: span.start_s)
        for first, second in zip(ordered, ordered[1:]):
            yield first, second


def verify_span_tree(spans: list[Span],
                     tolerance_s: float = 0.0) -> list[str]:
    """Structural integrity check over a finished span collection.

    Returns a list of human-readable violations (empty == healthy):

    * every span is closed and has a non-negative duration;
    * every child's ``[start, end]`` lies within its parent's;
    * siblings under one parent do not overlap (the pipeline is
      sequential, so overlap means a bookkeeping bug);
    * every non-root ``parent_id`` resolves to a collected span.

    Containment and overlap are checked between spans of one process
    only (the ``worker_pid`` on a span or its nearest ancestor; none:
    the coordinator): concurrent pool runs may overlap each other.
    """
    violations: list[str] = []
    by_id = {span.span_id: span for span in spans}
    processes = _processes(spans)
    for span in spans:
        label = f"{span.name}#{span.span_id}"
        if not span.closed:
            violations.append(f"{label}: never closed")
            continue
        if span.duration_s < 0:
            violations.append(f"{label}: negative duration "
                              f"{span.duration_s:.9f}s")
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            violations.append(f"{label}: parent {span.parent_id} missing")
            continue
        same_process = processes[span.span_id] == processes[parent.span_id]
        if parent.closed and same_process and (
                span.start_s < parent.start_s - tolerance_s
                or span.end_s > parent.end_s + tolerance_s):
            violations.append(
                f"{label}: escapes parent {parent.name}#{parent.span_id} "
                f"([{span.start_s}, {span.end_s}] outside "
                f"[{parent.start_s}, {parent.end_s}])")
    for first, second in _iter_sibling_pairs(
            [span for span in spans if span.closed], processes):
        if second.start_s < first.end_s - tolerance_s:
            violations.append(
                f"{second.name}#{second.span_id} overlaps sibling "
                f"{first.name}#{first.span_id}")
    return violations


class _NullSpan:
    """Shared inert span handed out by the disabled tracer."""

    __slots__ = ()

    name = "null"
    span_id = 0
    parent_id = None
    status = "ok"
    duration_s = 0.0

    def set_attribute(self, name: str, value: object) -> None:
        return None


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer(Tracer):
    """The default, disabled tracer: ``span()`` is a cached no-op."""

    enabled = False

    def __init__(self):
        super().__init__(clock=lambda: 0.0)

    def span(self, name: str, **attributes: object) -> _SpanContext:
        return _NULL_SPAN_CONTEXT  # type: ignore[return-value]

    def adopt(self, spans: list[Span], parent: Span | None = None,
              ) -> list[Span]:
        return []


#: Shared disabled tracer (the process-wide default instrumentation).
NULL_TRACER = NullTracer()
