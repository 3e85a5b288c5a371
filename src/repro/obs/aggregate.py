"""Coordinator-side live aggregation: the engine behind ``repro status``.

A broker campaign's telemetry is scattered across durable artifacts in
the broker's queue directory the moment it starts — the task-queue
event spool (submits, leases, completions), the worker heartbeat files
the broker writes for its workers, and the per-worker telemetry spools
workers flush under ``<queue-dir>/telemetry`` (:mod:`repro.obs.spool`).
:class:`CampaignAggregator` tails all of them *read-only* into one
:class:`CampaignView`:

* **queue state** — depth, sealed/total, completions, lease health
  (expired/stolen/fenced), and the active lease table, from a replay
  of ``events.spool`` (a second, independent :class:`LeaseState` — the
  aggregator never writes, so it can run beside a live broker);
* **worker liveness** — each heartbeat file's pid, staleness, and the
  run key + fencing token the worker currently holds;
* **throughput** — a ring buffer of ``(mono, completed)`` samples, one
  per refresh, yielding a windowed rate and an ETA over the remaining
  depth;
* **merged metrics** — the latest cumulative registry snapshot per
  worker session, folded through :meth:`MetricsRegistry.merge`; since
  each worker only counts completions that were not fenced off, the
  union reconciles with the coordinator's own final export;
* **events** — every event flushed to a worker spool, plus events the
  aggregator synthesizes from queue-log dispositions (lease expiries
  and steals), merged on wall-clock order.

Refreshing is incremental and idempotent: spool files are tailed by
byte offset, queue replay by the existing :meth:`catch_up` cursor, so
calling :meth:`refresh` twice without new writes yields an identical
view — the merge-idempotence property the tests pin down.

:func:`serve_status` wraps the aggregator in a stdlib
:class:`ThreadingHTTPServer` exposing ``/metrics`` (Prometheus text
exposition, scrapeable mid-campaign) and ``/status`` (the JSON view).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable

from repro.obs.events import Event, severity_rank
from repro.obs.metrics import MetricsRegistry
from repro.obs.spool import (
    SPOOL_SUFFIX,
    SpoolContent,
    TELEMETRY_DIRNAME,
    fold_frames,
    read_spool_frames,
)
from repro.resilience.taskqueue import DurableTaskQueue, WorkerHeartbeat

__all__ = [
    "CampaignAggregator",
    "CampaignView",
    "render_status",
    "serve_status",
]

#: Dispositions the aggregator surfaces as synthesized events.
_DISPOSITION_EVENTS = {
    "expire": ("queue.lease_expired", "warning"),
    "steal": ("queue.run_stolen", "warning"),
    "close": ("queue.sealed", "info"),
}


@dataclass
class CampaignView:
    """One coherent sample of a campaign's telemetry plane."""

    queue_dir: str
    campaign: str | None
    generated_wall_s: float
    queue: dict
    workers: list[dict]
    leases: list[dict]
    throughput: dict
    counters: dict[str, float]
    events: list[dict]
    telemetry: dict

    def to_dict(self) -> dict:
        return {
            "queue_dir": self.queue_dir,
            "campaign": self.campaign,
            "generated_wall_s": round(self.generated_wall_s, 6),
            "queue": self.queue,
            "workers": self.workers,
            "leases": self.leases,
            "throughput": self.throughput,
            "counters": self.counters,
            "events": self.events,
            "telemetry": self.telemetry,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class CampaignAggregator:
    """Tail a broker queue directory's durable telemetry into live views.

    Strictly read-only: opens the queue spool without ``create`` and
    never appends to it, so any number of aggregators can run beside a
    live campaign.  Thread-safe — the HTTP surface refreshes from
    request threads.
    """

    def __init__(self, queue_dir: str | Path,
                 clock: Callable[[], float] = time.monotonic,
                 wall_clock: Callable[[], float] = time.time,
                 sample_capacity: int = 512):
        self.root = Path(queue_dir)
        self._clock = clock
        self._wall_clock = wall_clock
        self.queue = DurableTaskQueue(self.root, fsync=False, clock=clock)
        self.telemetry_dir = self.root / TELEMETRY_DIRNAME
        self.opened = False
        self._offsets: dict[Path, int] = {}
        self._spools: dict[str, SpoolContent] = {}
        self._queue_events: list[Event] = []
        self._samples: deque[tuple[float, int]] = deque(
            maxlen=sample_capacity)
        self.spool_lines_skipped = 0
        self._mutex = threading.Lock()

    # -- folding ---------------------------------------------------------

    def refresh(self) -> bool:
        """Fold in everything appended since the last refresh.

        Returns False (and does nothing) while the queue spool does not
        exist yet — callers poll until the coordinator's attach creates
        it.
        """
        with self._mutex:
            if not self.opened:
                if not self.queue.open(create=False):
                    return False
                self.opened = True
            else:
                self.queue.catch_up()
            self._fold_dispositions()
            self._tail_spools()
            self._samples.append((self._clock(),
                                  self.queue.state.stats.completed))
            return True

    def _fold_dispositions(self) -> None:
        now_wall = self._wall_clock()
        now_mono = self._clock()
        for disposition, seq, worker in self.queue.drain_dispositions():
            named = _DISPOSITION_EVENTS.get(disposition)
            if named is None:
                continue
            name, severity = named
            task = self.queue.state.tasks.get(seq)
            self._queue_events.append(Event(
                name=name, severity=severity,
                seq=len(self._queue_events) + 1,
                wall_s=now_wall, mono_s=now_mono,
                campaign=self.queue.state.identity,
                worker=worker or None,
                run_key=task.key if task is not None else None,
                token=task.token if task is not None else None,
                fields={"seq": seq} if seq >= 0 else {}))

    def _tail_spools(self) -> None:
        if not self.telemetry_dir.exists():
            return
        for path in sorted(self.telemetry_dir.glob(f"*{SPOOL_SUFFIX}")):
            offset = self._offsets.get(path, 0)
            frames, new_offset, skipped, torn = read_spool_frames(
                path, offset)
            self._offsets[path] = new_offset
            self.spool_lines_skipped += skipped
            content = self._spools.setdefault(path.stem, SpoolContent())
            fold_frames(content, frames)
            content.torn = torn

    # -- derived views ---------------------------------------------------

    def merged_registry(self, registry: MetricsRegistry | None = None,
                        ) -> MetricsRegistry:
        """Union of every worker session's latest metrics snapshot,
        folded into ``registry`` (default: a fresh one).

        A snapshot that conflicts with what is already folded (one
        name as two instrument kinds, other histogram bounds) is left
        out whole; the spools only ever hold well-typed snapshots.
        """
        if registry is None:
            registry = MetricsRegistry(clock=self._clock)
        with self._mutex:
            for content in self._spools.values():
                for session in sorted(content.metrics):
                    try:
                        registry.merge(content.metrics[session])
                    except ValueError:
                        continue
        return registry

    def all_events(self) -> list[Event]:
        """Worker-spool plus queue-synthesized events, wall-ordered."""
        with self._mutex:
            events = list(self._queue_events)
            for content in self._spools.values():
                events.extend(content.events)
        events.sort(key=lambda event: (event.wall_s, event.seq))
        return events

    def all_spans(self) -> list:
        with self._mutex:
            return [span for content in self._spools.values()
                    for span in content.spans]

    def view(self, recent_events: int = 20,
             min_severity: str = "debug") -> CampaignView:
        """Assemble the status view from the current folded state."""
        state = self.queue.state
        now = self._clock()
        stats = state.stats
        depth = state.depth()
        leases = [{"seq": task.seq, "key": list(task.key),
                   "worker": task.worker, "token": task.token,
                   "deadline_in_s": round((task.deadline or 0.0) - now, 3)}
                  for task in sorted(state.tasks.values(),
                                     key=lambda task: task.seq)
                  if task.active]
        workers = [_worker_dict(beat, self._spools.get(beat.worker))
                   for beat in self.queue.worker_heartbeats()]
        floor = severity_rank(min_severity)
        events = [event for event in self.all_events()
                  if severity_rank(event.severity) >= floor]
        registry = self.merged_registry()
        counters = {metric.name: metric.total()
                    for metric in registry.metrics()
                    if metric.kind == "counter"}
        with self._mutex:
            # ``frames`` counts every frame read, folded or not;
            # ``lines_skipped`` the lines that did not decode and
            # ``records_skipped`` the frames, event/span records and
            # metrics snapshots the fold rejected.
            telemetry = {
                "spools": len(self._spools),
                "frames": sum(content.frames_total
                              for content in self._spools.values()),
                "lines_skipped": self.spool_lines_skipped,
                "records_skipped": sum(content.skipped
                                       for content in self._spools.values()),
                "torn": sorted(worker
                               for worker, content in self._spools.items()
                               if content.torn),
            }
        return CampaignView(
            queue_dir=str(self.root),
            campaign=state.identity,
            generated_wall_s=self._wall_clock(),
            queue={
                "submitted": stats.submitted,
                "completed": stats.completed,
                "depth": depth,
                "leases_active": state.active_leases(now),
                "expired": stats.expired,
                "stolen": stats.stolen,
                "fenced": stats.fenced,
                "closed": state.closed,
                "total": state.total,
                "drained": state.drained(),
            },
            workers=workers,
            leases=leases,
            throughput=self._throughput(depth),
            counters=counters,
            events=[event.to_dict() for event in events[-recent_events:]],
            telemetry=telemetry,
        )

    def _throughput(self, depth: int) -> dict:
        with self._mutex:
            samples = list(self._samples)
        rate = 0.0
        if len(samples) >= 2:
            (t0, c0), (t1, c1) = samples[0], samples[-1]
            if t1 > t0:
                rate = max(0.0, (c1 - c0) / (t1 - t0))
        eta_s = depth / rate if rate > 0 else None
        return {
            "rate_per_s": round(rate, 6),
            "eta_s": None if eta_s is None else round(eta_s, 3),
            "samples": len(samples),
            "window_s": (round(samples[-1][0] - samples[0][0], 3)
                         if len(samples) >= 2 else 0.0),
        }

    # -- exporters -------------------------------------------------------

    def to_prometheus(self) -> str:
        """Queue-level gauges plus merged worker metrics, scrape-ready."""
        registry = MetricsRegistry(clock=self._clock)
        state = self.queue.state
        now = self._clock()
        stats = state.stats
        registry.gauge(
            "queue_depth", "tasks not yet completed").set(state.depth())
        registry.gauge("leases_active",
                       "leases currently held").set(state.active_leases(now))
        registry.gauge("workers_live", "workers with a fresh heartbeat").set(
            len(self.queue.live_workers()))
        registry.counter("queue_submitted_total").inc(stats.submitted)
        registry.counter("queue_completed_total").inc(stats.completed)
        registry.counter("leases_expired_total").inc(stats.expired)
        registry.counter("runs_stolen_total").inc(stats.stolen)
        registry.counter("completions_fenced_total").inc(stats.fenced)
        return self.merged_registry(registry).to_prometheus()


def _worker_dict(beat: WorkerHeartbeat,
                 content: SpoolContent | None) -> dict:
    record = {
        "worker": beat.worker,
        "pid": beat.pid,
        "live": beat.live,
        "age_s": round(beat.age_s, 3),
        "run_key": None if beat.run_key is None else list(beat.run_key),
        "token": beat.token,
    }
    if content is not None:
        record["sessions"] = len(content.sessions)
        record["events"] = len(content.events)
        record["spans"] = len(content.spans)
    return record


# ----------------------------------------------------------------------
# Human rendering
# ----------------------------------------------------------------------


def render_status(view: CampaignView) -> str:
    """The one-shot / ``--watch`` terminal rendering of a view."""
    queue = view.queue
    lines = [
        f"campaign {view.campaign or '?'} · queue {view.queue_dir}",
        f"tasks: {queue['submitted']} submitted · "
        f"{queue['completed']} completed · {queue['depth']} remaining · "
        f"{queue['leases_active']} leased · "
        + ("sealed" if queue["closed"] else "open")
        + (" · drained" if queue["drained"] else ""),
        f"health: {queue['expired']} leases expired · "
        f"{queue['stolen']} runs stolen · "
        f"{queue['fenced']} completions fenced",
    ]
    throughput = view.throughput
    if throughput["rate_per_s"] > 0:
        eta = throughput["eta_s"]
        lines.append(
            f"throughput: {throughput['rate_per_s']:.3f} runs/s"
            + (f" · ETA {eta:.1f}s" if eta is not None else ""))
    lines.append("workers:")
    if not view.workers:
        lines.append("  (none seen)")
    for worker in view.workers:
        status = "live" if worker["live"] else "dead"
        detail = f"  {worker['worker']:<12} {status:<5} pid {worker['pid']}"
        if worker["run_key"] is not None:
            detail += (" · key " + "/".join(str(p)
                                            for p in worker["run_key"]))
            if worker["token"] is not None:
                detail += f" · token {worker['token']}"
        detail += f" · beat {worker['age_s']:.1f}s ago"
        lines.append(detail)
    if view.leases:
        lines.append("active leases:")
        for lease in view.leases:
            lines.append(
                f"  seq {lease['seq']} · "
                + "/".join(str(p) for p in lease["key"])
                + f" · {lease['worker']} · token {lease['token']} · "
                f"expires in {lease['deadline_in_s']:.1f}s")
    if view.events:
        lines.append(f"recent events ({len(view.events)}):")
        for record in view.events:
            lines.append("  " + Event.from_dict(record).render())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------


class _StatusHTTPServer(ThreadingHTTPServer):
    """Hardened threading server for ``repro status --serve``.

    ``daemon_threads`` keeps a stalled handler thread from wedging
    ``server_close()`` (``ThreadingHTTPServer`` joins non-daemon
    handler threads on close, so one client that connects and then
    goes silent would otherwise hang Ctrl-C forever); the per-request
    socket ``timeout`` on the handler class bounds how long that silent
    client can hold its thread at all.
    """

    daemon_threads = True


def serve_status(aggregator: CampaignAggregator, port: int,
                 host: str = "127.0.0.1",
                 request_timeout_s: float = 30.0) -> ThreadingHTTPServer:
    """An OpenMetrics/JSON status server over ``aggregator``.

    ``GET /metrics`` refreshes and returns the Prometheus text
    exposition; ``GET /status`` (or ``/``) the JSON view.  The caller
    owns the returned server (``serve_forever()`` / ``shutdown()``) —
    the CLI blocks on it, tests run it in a thread.
    """

    class _StatusHandler(BaseHTTPRequestHandler):
        timeout = request_timeout_s  # stalled sockets release the thread

        def do_GET(self) -> None:  # noqa: N802 - stdlib interface
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            opened = aggregator.refresh()
            if path == "/metrics":
                body = aggregator.to_prometheus().encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif path in ("/", "/status", "/status.json"):
                payload = aggregator.view().to_dict()
                payload["opened"] = opened
                body = (json.dumps(payload, sort_keys=True) + "\n") \
                    .encode("utf-8")
                content_type = "application/json"
            else:
                self.send_error(404, "unknown path (try /status, /metrics)")
                return
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args: object) -> None:
            pass  # scrapes must not spam the campaign's stderr

    return _StatusHTTPServer((host, port), _StatusHandler)
