"""Metrics registry: labeled counters, gauges, histograms and timers.

The registry is the quantitative half of the observability layer
(:mod:`repro.obs`): the campaign runner, the analysis pipeline, the
trace parser and the retry loop all report into it, and the CLI
exports its snapshot as JSON (``--metrics-out``) or Prometheus text
exposition format.

Design constraints, in order:

* **Dependency-free and deterministic.**  No wall clock leaks into any
  value: timers read an injectable monotonic clock, and a snapshot of
  two identically-seeded campaigns differs only in timing series
  (counters and gauges are bit-identical).
* **Zero-cost when disabled.**  The default registry is
  :class:`NullRegistry`, whose factories hand back shared no-op
  instruments; an uninstrumented ``analyze_trace`` pays a few empty
  method calls and nothing else.
* **Snapshot/reset semantics.**  ``snapshot()`` is a plain-dict deep
  copy (JSON-able, sorted keys) so callers can diff before/after;
  ``reset()`` zeroes every series without forgetting registrations.
"""

from __future__ import annotations

import json
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Timer",
]

#: Histogram bucket upper bounds for durations in seconds, spanning the
#: microsecond analysis stages up to multi-second full campaigns.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _escape_label(text: str) -> str:
    """Escape a label name/value for the canonical series key.

    ``,`` and ``=`` are the key's structural characters, so raw
    occurrences inside a value would make distinct label sets collide
    (``{"a": "1,b=2"}`` vs ``{"a": "1", "b": "2"}``).  Values without
    structural characters encode unchanged, so ordinary keys keep their
    legacy byte-identical form.
    """
    return (text.replace("\\", "\\\\").replace(",", "\\,")
                .replace("=", "\\="))


def _labels_key(labels: dict[str, object]) -> str:
    """Canonical series key: ``"a=1,b=x"`` with sorted, escaped labels."""
    if not labels:
        return ""
    return ",".join(f"{_escape_label(name)}={_escape_label(str(labels[name]))}"
                    for name in sorted(labels))


def _split_key(key: str) -> list[tuple[str, str]]:
    """Escape-aware inverse of :func:`_labels_key`: ``[(name, value)]``."""
    pairs: list[tuple[str, str]] = []
    name: str | None = None
    current: list[str] = []
    index = 0
    while index < len(key):
        char = key[index]
        if char == "\\" and index + 1 < len(key):
            current.append(key[index + 1])
            index += 2
            continue
        if char == "=" and name is None:
            name = "".join(current)
            current = []
        elif char == ",":
            pairs.append((name or "", "".join(current)))
            name, current = None, []
        else:
            current.append(char)
        index += 1
    pairs.append((name or "", "".join(current)))
    return pairs


def _prom_escape(value: str) -> str:
    """Escape a label value for the text exposition format."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
                 .replace("\n", "\\n"))


def _labels_prom(key: str) -> str:
    """Render a canonical series key as a Prometheus label block."""
    if not key:
        return ""
    inner = ",".join(f'{name}="{_prom_escape(value)}"'
                     for name, value in _split_key(key))
    return "{" + inner + "}"


@dataclass
class Counter:
    """A monotonically increasing value, optionally split by labels."""

    name: str
    help: str = ""
    series: dict[str, float] = field(default_factory=dict)

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _labels_key(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self.series.get(_labels_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every labeled series."""
        return sum(self.series.values())

    def reset(self) -> None:
        self.series.clear()

    def snapshot(self) -> dict[str, float]:
        return {key: self.series[key] for key in sorted(self.series)}


@dataclass
class Gauge:
    """A value that goes up and down (e.g. in-flight runs)."""

    name: str
    help: str = ""
    series: dict[str, float] = field(default_factory=dict)

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self.series[_labels_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _labels_key(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self.series.get(_labels_key(labels), 0.0)

    def reset(self) -> None:
        self.series.clear()

    def snapshot(self) -> dict[str, float]:
        return {key: self.series[key] for key in sorted(self.series)}


@dataclass
class _HistogramSeries:
    """One labeled series of a histogram: bucket counts + sum + count."""

    bucket_counts: list[int]
    total: float = 0.0
    count: int = 0


@dataclass
class Histogram:
    """Observations bucketed against fixed upper bounds.

    ``buckets`` are finite upper bounds; an implicit ``+Inf`` bucket
    catches everything above the last bound, so ``count`` always equals
    the number of observations.
    """

    name: str
    help: str = ""
    buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS
    series: dict[str, _HistogramSeries] = field(default_factory=dict)

    kind = "histogram"

    def __post_init__(self) -> None:
        if tuple(sorted(self.buckets)) != tuple(self.buckets):
            raise ValueError(f"histogram {self.name} buckets must be sorted")

    def observe(self, value: float, **labels: object) -> None:
        key = _labels_key(labels)
        entry = self.series.get(key)
        if entry is None:
            entry = _HistogramSeries(bucket_counts=[0] * (len(self.buckets) + 1))
            self.series[key] = entry
        entry.bucket_counts[bisect_left(self.buckets, value)] += 1
        entry.total += value
        entry.count += 1

    def count(self, **labels: object) -> int:
        entry = self.series.get(_labels_key(labels))
        return entry.count if entry else 0

    def sum(self, **labels: object) -> float:
        entry = self.series.get(_labels_key(labels))
        return entry.total if entry else 0.0

    def mean(self, **labels: object) -> float:
        entry = self.series.get(_labels_key(labels))
        if not entry or not entry.count:
            return 0.0
        return entry.total / entry.count

    def reset(self) -> None:
        self.series.clear()

    def bucket_label(self, index: int) -> str:
        """The snapshot label of bucket ``index`` (``repr`` or ``+Inf``)."""
        if index == len(self.buckets):
            return "+Inf"
        return repr(self.buckets[index])

    def snapshot(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for key in sorted(self.series):
            entry = self.series[key]
            out[key] = {
                "count": entry.count,
                "sum": entry.total,
                "buckets": {
                    self.bucket_label(index): count
                    for index, count in enumerate(entry.bucket_counts)
                    if count
                },
                # Bounds make the snapshot self-describing, so a
                # registry in another process can merge() it losslessly.
                "bounds": list(self.buckets),
            }
        return out


class Timer:
    """Context manager observing an elapsed duration into a histogram.

    Reads the registry's (injectable, monotonic) clock on entry and
    exit; re-entrant and reusable because entry times live on a stack.
    """

    __slots__ = ("_histogram", "_labels", "_clock", "_starts")

    def __init__(self, histogram: Histogram, labels: dict[str, object],
                 clock: Callable[[], float]):
        self._histogram = histogram
        self._labels = labels
        self._clock = clock
        self._starts: list[float] = []

    def __enter__(self) -> "Timer":
        self._starts.append(self._clock())
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = self._clock() - self._starts.pop()
        self._histogram.observe(elapsed, **self._labels)


class MetricsRegistry:
    """Create-on-first-use registry of named instruments.

    A name maps to exactly one instrument kind; asking for an existing
    name with a different kind raises, which catches typo'd
    re-registrations early.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- factories ------------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
                  ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name=name, help=help, buckets=tuple(buckets))
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}, not histogram")
        return metric

    def timer(self, name: str, help: str = "", **labels: object) -> Timer:
        """A context manager timing into histogram ``name``."""
        return Timer(self.histogram(name, help), labels, self.clock)

    def _get(self, name: str, cls, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name=name, help=help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}, not {cls.kind}")
        return metric

    # -- introspection --------------------------------------------------

    def metrics(self) -> list[Counter | Gauge | Histogram]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self) -> dict:
        """Plain-dict copy of every series, grouped by instrument kind."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self.metrics():
            out[metric.kind + "s"][metric.name] = metric.snapshot()
        return out

    # -- merging --------------------------------------------------------

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counter and gauge series add; histogram series add bucket-wise
        (bucket bounds come from the snapshot's ``bounds`` field, so a
        histogram never observed in this registry merges losslessly).
        This is how the parallel campaign engine folds per-run worker
        telemetry back into the parent registry: merging worker
        snapshots in schedule order reproduces exactly the counter
        values sequential execution would have produced.

        All or nothing: a snapshot that is not shaped like
        :meth:`snapshot` output, names an instrument of another kind or
        carries other histogram bucket bounds than this registry's
        raises ``ValueError`` before anything is folded.
        """
        bounds = self._check_snapshot(snapshot)
        for name, series in snapshot.get("counters", {}).items():
            counter = self.counter(name)
            for key, value in series.items():
                counter.series[key] = counter.series.get(key, 0.0) + value
        for name, series in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            for key, value in series.items():
                gauge.series[key] = gauge.series.get(key, 0.0) + value
        for name, series in snapshot.get("histograms", {}).items():
            if not series:
                continue
            histogram = self.histogram(name, buckets=bounds[name])
            label_to_index = {histogram.bucket_label(index): index
                              for index in range(len(histogram.buckets) + 1)}
            for key, data in series.items():
                entry = histogram.series.get(key)
                if entry is None:
                    entry = _HistogramSeries(
                        bucket_counts=[0] * (len(histogram.buckets) + 1))
                    histogram.series[key] = entry
                for label, count in data.get("buckets", {}).items():
                    entry.bucket_counts[label_to_index[label]] += count
                entry.total += data.get("sum", 0.0)
                entry.count += data.get("count", 0)

    def _check_snapshot(self, snapshot: object) -> dict[str, tuple]:
        """Raise ``ValueError`` unless :meth:`merge` can fold
        ``snapshot`` whole; returns each histogram's bucket bounds."""
        if not isinstance(snapshot, dict):
            raise ValueError("a metrics snapshot must be an object")
        kinds: dict[str, type] = {}
        bounds: dict[str, tuple] = {}
        for section, cls in (("counters", Counter), ("gauges", Gauge),
                             ("histograms", Histogram)):
            group = snapshot.get(section, {})
            if not isinstance(group, dict):
                raise ValueError(f"snapshot {section} must be an object")
            for name, series in group.items():
                registered = self._metrics.get(name)
                if kinds.setdefault(name, cls) is not cls or not (
                        registered is None or isinstance(registered, cls)):
                    raise ValueError(f"metric {name!r} is not a {cls.kind}")
                if not isinstance(series, dict):
                    raise ValueError(f"metric {name!r} series must be an "
                                     "object")
                if cls is Histogram:
                    bounds[name] = _check_histogram(name, series, registered)
                elif not all(map(_is_number, series.values())):
                    raise ValueError(f"metric {name!r} has a non-number")
        return bounds

    # -- exporters ------------------------------------------------------

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        for metric in self.metrics():
            if metric.help:
                help_text = metric.help.replace("\\", "\\\\") \
                                       .replace("\n", "\\n")
                lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                self._prom_histogram(metric, lines)
            else:
                for key in sorted(metric.series):
                    lines.append(f"{metric.name}{_labels_prom(key)} "
                                 f"{metric.series[key]:g}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _prom_histogram(metric: Histogram, lines: list[str]) -> None:
        for key in sorted(metric.series):
            entry = metric.series[key]
            cumulative = 0
            for index, bound in enumerate(metric.buckets + (float("inf"),)):
                cumulative += entry.bucket_counts[index]
                le = "+Inf" if bound == float("inf") else f"{bound:g}"
                labels = key + ("," if key else "") + f"le={le}"
                lines.append(f"{metric.name}_bucket{_labels_prom(labels)} "
                             f"{cumulative}")
            lines.append(f"{metric.name}_sum{_labels_prom(key)} "
                         f"{entry.total:g}")
            lines.append(f"{metric.name}_count{_labels_prom(key)} "
                         f"{entry.count}")

    def export_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    def export_prometheus(self, path: str | Path) -> None:
        Path(path).write_text(self.to_prometheus(), encoding="utf-8")


def _is_number(value: object) -> bool:
    """A snapshot value: an int or float that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _is_count(value: object) -> bool:
    return isinstance(value, int) and _is_number(value)


def _check_histogram(name: str, series: dict,
                     registered: Histogram | None) -> tuple:
    """Validate one histogram's snapshot series for merging; returns
    the sorted bucket bounds they all share (the registered ones if
    the registry has the histogram already)."""
    shared = None if registered is None else registered.buckets
    for data in series.values():
        bounds = data.get("bounds", DEFAULT_TIME_BUCKETS) \
            if isinstance(data, dict) else None
        if not (isinstance(bounds, (list, tuple))
                and all(map(_is_number, bounds))):
            raise ValueError(f"histogram {name!r} has a malformed series")
        bounds = tuple(bounds)
        if shared is None:
            shared = bounds
        if bounds != shared or sorted(bounds) != list(bounds):
            raise ValueError(f"histogram {name!r} bucket bounds differ: "
                             f"{shared} != {bounds}")
        labels = {repr(bound) for bound in shared} | {"+Inf"}
        buckets = data.get("buckets", {})
        if not (isinstance(buckets, dict) and set(buckets) <= labels
                and all(map(_is_count, buckets.values()))
                and _is_number(data.get("sum", 0.0))
                and _is_count(data.get("count", 0))):
            raise ValueError(f"histogram {name!r} has a malformed series")
    return shared


class _NullTimer:
    """Shared no-op timer: enters and exits without reading any clock."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


class _NullInstrument:
    """One object that answers every instrument method with a no-op."""

    __slots__ = ()

    name = "null"
    help = ""
    series: dict = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        return None

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        return None

    def set(self, value: float, **labels: object) -> None:
        return None

    def observe(self, value: float, **labels: object) -> None:
        return None

    def value(self, **labels: object) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def count(self, **labels: object) -> int:
        return 0

    def sum(self, **labels: object) -> float:
        return 0.0

    def mean(self, **labels: object) -> float:
        return 0.0

    def reset(self) -> None:
        return None

    def snapshot(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()
_NULL_TIMER = _NullTimer()


class NullRegistry(MetricsRegistry):
    """The default, disabled registry: every factory is a cached no-op."""

    enabled = False

    def __init__(self):
        super().__init__(clock=lambda: 0.0)

    def counter(self, name: str, help: str = "") -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
                  ) -> Histogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def timer(self, name: str, help: str = "", **labels: object) -> Timer:
        return _NULL_TIMER  # type: ignore[return-value]

    def merge(self, snapshot: dict) -> None:
        return None


#: Shared disabled registry (the process-wide default instrumentation).
NULL_REGISTRY = NullRegistry()
