"""Span recording for traced benchmark runs.

The benchmark times each layer of ``src/repro`` from the outside: it
replaces a layer's public functions, at the name their callers look
them up by, with wrappers that record one span per call.  Nothing under
``src/`` changes.  A span holds its name, start, end, the span that was
open when it started (its parent) and the run key or stream id it
belongs to.  Parents and keys live in context variables, so threads
(broker request handlers, lease heartbeats) and asyncio tasks (ingest
connections) each keep their own chain.

Spans stay in memory as typed columns and are written out once, when
the run ends.  :func:`self_times` then gives each span's self time: its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import array
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

_CURRENT = contextvars.ContextVar("perfbench_span", default=0)
_KEY = contextvars.ContextVar("perfbench_key", default=0)


class SpanLog:
    """The finished spans of one process, as append-only columns."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.keys: list[str] = [""]
        self._name_codes: dict[str, int] = {}
        self._key_codes: dict[str, int] = {"": 0}
        self.span_id = array.array("q")
        self.parent = array.array("q")
        self.name = array.array("i")
        self.key = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, float] = {}
        self.next_id = itertools.count(1).__next__
        self._lock = threading.Lock()

    def name_code(self, name: str) -> int:
        with self._lock:
            code = self._name_codes.get(name)
            if code is None:
                code = self._name_codes[name] = len(self.names)
                self.names.append(name)
            return code

    def set_key(self, key: str) -> None:
        """Attribute this context's following spans to ``key``."""
        with self._lock:
            code = self._key_codes.get(key)
            if code is None:
                code = self._key_codes[key] = len(self.keys)
                self.keys.append(key)
        _KEY.set(code)

    def record(self, span_id: int, parent: int, name: int,
               start: float, end: float) -> None:
        key = _KEY.get()
        with self._lock:
            self.span_id.append(span_id)
            self.parent.append(parent)
            self.name.append(name)
            self.key.append(key)
            self.start.append(start)
            self.end.append(end)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def table(self) -> "SpanTable":
        with self._lock:
            return SpanTable(
                span_id=np.frombuffer(self.span_id, dtype=np.int64).copy(),
                parent=np.frombuffer(self.parent, dtype=np.int64).copy(),
                name=np.frombuffer(self.name, dtype=np.int32).copy(),
                key=np.frombuffer(self.key, dtype=np.int32).copy(),
                start=np.frombuffer(self.start, dtype=np.float64).copy(),
                end=np.frombuffer(self.end, dtype=np.float64).copy(),
                names=list(self.names), keys=list(self.keys),
                counters=dict(self.counters))


@dataclass
class SpanTable:
    """Spans of one process as numpy columns (see :class:`SpanLog`)."""

    span_id: np.ndarray
    parent: np.ndarray
    name: np.ndarray
    key: np.ndarray
    start: np.ndarray
    end: np.ndarray
    names: list[str]
    keys: list[str] = field(default_factory=lambda: [""])
    counters: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.span_id)

    def save(self, path: str | Path) -> None:
        meta = json.dumps({"names": self.names, "keys": self.keys,
                           "counters": self.counters})
        with open(path, "wb") as handle:
            np.savez(handle, span_id=self.span_id, parent=self.parent,
                     name=self.name, key=self.key, start=self.start,
                     end=self.end, meta=np.array(meta))

    @classmethod
    def load(cls, path: str | Path) -> "SpanTable":
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            return cls(span_id=data["span_id"], parent=data["parent"],
                       name=data["name"], key=data["key"],
                       start=data["start"], end=data["end"],
                       names=meta["names"], keys=meta["keys"],
                       counters=meta["counters"])

    def parent_rows(self) -> np.ndarray:
        """Row of each span's parent, ``-1`` for a root span."""
        order = np.argsort(self.span_id, kind="stable")
        sorted_ids = self.span_id[order]
        rows = np.full(len(self), -1, dtype=np.int64)
        has = self.parent > 0
        pos = np.searchsorted(sorted_ids, self.parent[has])
        pos = np.minimum(pos, max(len(self) - 1, 0))
        found = sorted_ids[pos] == self.parent[has]
        picked = np.where(found, order[pos], -1)
        rows[has] = picked
        return rows


def self_times(table: SpanTable) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (an asyncio task it started, say) only counts
    for the overlap; children that overlap or share an edge are merged
    before their length is taken.
    """
    duration = table.end - table.start
    parents = table.parent_rows()
    child = np.nonzero(parents >= 0)[0]
    if not len(child):
        return duration
    child = child[np.lexsort((table.start[child], parents[child]))]
    owner = parents[child].tolist()
    starts = table.start[child].tolist()
    ends = table.end[child].tolist()
    p_start = table.start.tolist()
    p_end = table.end.tolist()
    covered = np.zeros(len(table))
    current, lo, hi, total = -1, 0.0, 0.0, 0.0
    for row, start, end in zip(owner, starts, ends):
        if row != current:
            if current >= 0:
                covered[current] = total + (hi - lo)
            current, total = row, 0.0
            lo = hi = p_start[row]
        start = max(start, p_start[row])
        end = min(end, p_end[row])
        if end <= start:
            continue
        if start > hi:
            total += hi - lo
            lo, hi = start, end
        elif end > hi:
            hi = end
    covered[current] = total + (hi - lo)
    return duration - covered


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------

#: ``before(log, args, kwargs)`` / ``after(log, args, kwargs, result)``.
Hook = Callable[..., None]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` + ``attr`` (``"f"`` or
    ``"Class.method"``) recorded as span ``span`` (a name, or a callable
    naming the span from the call's arguments)."""

    module: str
    attr: str
    span: str | Callable[[tuple], str]
    before: Hook | None = None
    after: Hook | None = None


def _wrap(log: SpanLog, func: Callable, target: Target) -> Callable:
    clock = time.perf_counter
    next_id, record = log.next_id, log.record
    fixed = log.name_code(target.span) if isinstance(target.span, str) \
        else None
    naming = target.span if fixed is None else None
    before, after = target.before, target.after

    if inspect.iscoroutinefunction(func):
        @functools.wraps(func)
        async def traced_async(*args, **kwargs):
            name = fixed if naming is None else log.name_code(naming(args))
            if before is not None:
                before(log, args, kwargs)
            span_id, parent = next_id(), _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = clock()
            try:
                result = await func(*args, **kwargs)
            except BaseException:
                end = clock()
                _CURRENT.reset(token)
                record(span_id, parent, name, start, end)
                raise
            end = clock()
            _CURRENT.reset(token)
            if after is not None:
                after(log, args, kwargs, result)
            record(span_id, parent, name, start, end)
            return result
        return traced_async

    @functools.wraps(func)
    def traced(*args, **kwargs):
        name = fixed if naming is None else log.name_code(naming(args))
        if before is not None:
            before(log, args, kwargs)
        span_id, parent = next_id(), _CURRENT.get()
        token = _CURRENT.set(span_id)
        start = clock()
        try:
            result = func(*args, **kwargs)
        except BaseException:
            end = clock()
            _CURRENT.reset(token)
            record(span_id, parent, name, start, end)
            raise
        end = clock()
        _CURRENT.reset(token)
        if after is not None:
            # Runs before the span is recorded: a hook that names the
            # run key from the result (parse_trace) keys its own span.
            after(log, args, kwargs, result)
        record(span_id, parent, name, start, end)
        return result
    return traced


class Installed:
    """Wrappers in place; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, value: object) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def install(log: SpanLog, targets: list[Target]) -> Installed:
    """Wrap every target so its calls record spans into ``log``."""
    installed = Installed()
    for target in targets:
        owner: object = importlib.import_module(target.module)
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[name]
            if isinstance(raw, staticmethod):
                value: object = staticmethod(_wrap(log, raw.__func__, target))
            elif isinstance(raw, classmethod):
                value = classmethod(_wrap(log, raw.__func__, target))
            else:
                value = _wrap(log, raw, target)
        else:
            value = _wrap(log, getattr(owner, name), target)
        installed.replace(owner, name, value)
    return installed
