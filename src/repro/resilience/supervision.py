"""Campaign supervision: run deadlines, crash containment, graceful stop.

A months-long field campaign treats partial failure as the normal case
(§4.1), and the parallel campaign engine (PR 3) adds two failure modes
the retry/quarantine machinery alone cannot absorb: a *hung* run wedges
its pool slot forever, and an OOM-killed / crashed worker breaks the
whole ``ProcessPoolExecutor``.  This module is the supervision layer
the runner drives:

* **Deadlines** — the cooperative per-run budget lives in
  :mod:`repro.core.deadline` (re-exported here); the *hard* backstop
  for hung workers is :func:`parent_wait_budget` + the supervisor's
  kill-and-respawn cycle.
* **Crash containment** — :class:`PoolSupervisor` owns the executor:
  it can kill wedged worker processes outright and rebuild the pool,
  while :class:`CircuitBreaker` bounds how often that may happen
  before the campaign fails fast with a diagnostic summary
  (:class:`CircuitBreakerOpen`).
* **Graceful shutdown** — :func:`graceful_shutdown` converts SIGTERM
  into :class:`ShutdownRequested` (a ``BaseException``, mirroring
  ``KeyboardInterrupt``) so the runner can drain finished futures and
  flush the checkpoint before exiting, and the CLI can print the
  resume hint.

Every supervision event is reported into the active
:class:`~repro.obs.Instrumentation` bundle:
``campaign_run_timeouts_total``, ``campaign_pool_rebuilds_total``,
``campaign_runs_rescheduled_total`` and ``campaign_breaker_trips_total``
counters plus a ``pool_rebuild`` span per kill-and-respawn cycle.
"""

from __future__ import annotations

import signal
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.deadline import (
    Deadline,
    RunTimeoutError,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.obs import get_instrumentation, reset_instrumentation

__all__ = [
    "CircuitBreaker",
    "CircuitBreakerOpen",
    "Deadline",
    "PoolSupervisor",
    "RunTimeoutError",
    "ShutdownRequested",
    "WorkerCrashError",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
    "graceful_shutdown",
    "parent_wait_budget",
]


class WorkerCrashError(RuntimeError):
    """A pool worker died abnormally (OOM kill, hard crash) mid-run."""


class CircuitBreakerOpen(RuntimeError):
    """Supervision gave up: the failure pattern looks systemic.

    Carries the breaker's diagnostic summary (rebuild count, consecutive
    failures, the most recent events) so the operator sees *why* the
    campaign failed fast instead of burning the whole schedule.
    """


class ShutdownRequested(BaseException):
    """A graceful-stop signal (SIGTERM) arrived.

    A ``BaseException`` on purpose, exactly like ``KeyboardInterrupt``:
    the retry loop only absorbs ``Exception``, so a shutdown request
    always propagates to the runner's drain-and-flush path and then to
    the CLI's resume hint.
    """

    def __init__(self, signum: int = signal.SIGTERM):
        super().__init__(f"shutdown requested (signal {signum})")
        self.signum = signum


def parent_wait_budget(run_timeout_s: float, max_retries: int) -> float:
    """The hard wall-clock the parent grants one worker future.

    The worker enforces ``run_timeout_s`` per attempt *cooperatively*
    and may retry up to ``max_retries`` times in-process, so the
    parent-side deadline must cover the whole retry envelope — plus a
    50% grace factor for scheduling slack — before concluding the
    worker is genuinely hung and killing it.  A cooperative worker-side
    timeout therefore always wins the race, keeping parallel results
    bit-identical to sequential whenever the run is slow rather than
    stuck.
    """
    return run_timeout_s * (max_retries + 1) * 1.5


@dataclass
class CircuitBreaker:
    """Fail-fast guard over supervision-level recovery actions.

    Two independent thresholds, both meaning "this is not partial
    failure any more, stop wasting the schedule":

    * ``max_rebuilds`` — pool kill-and-respawn cycles (timeouts and
      worker crashes) per campaign; the N+1-th rebuild trips.
    * ``max_consecutive_failures`` — runs that ended in quarantine
      (any cause) without an intervening success; ``0`` disables the
      check, which is the default so high-failure-rate chaos campaigns
      keep their run-to-completion semantics.
    """

    max_rebuilds: int = 3
    max_consecutive_failures: int = 0
    rebuilds: int = 0
    consecutive_failures: int = 0
    failures_total: int = 0
    events: list[str] = field(default_factory=list)

    #: Most recent events kept for the diagnostic summary.
    EVENT_LIMIT = 12

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self, kind: str, key: tuple) -> None:
        """One quarantined/timed-out/crashed run; trips on a streak."""
        self.failures_total += 1
        self.consecutive_failures += 1
        self._event(f"{kind} at {'/'.join(str(part) for part in key)}")
        if self.max_consecutive_failures > 0 \
                and self.consecutive_failures >= self.max_consecutive_failures:
            self._trip(f"{self.consecutive_failures} consecutive run "
                       f"failures (limit {self.max_consecutive_failures})")

    def record_rebuild(self, reason: str) -> None:
        """One pool kill-and-respawn cycle; trips past ``max_rebuilds``."""
        self.rebuilds += 1
        self._event(f"pool rebuild ({reason})")
        if self.rebuilds > self.max_rebuilds:
            self._trip(f"{self.rebuilds} pool rebuilds "
                       f"(limit {self.max_rebuilds})")

    def summary(self, reason: str) -> str:
        lines = [
            f"circuit breaker open: {reason}",
            f"  pool rebuilds: {self.rebuilds}",
            f"  failures: {self.failures_total} total, "
            f"{self.consecutive_failures} consecutive",
        ]
        if self.events:
            lines.append("  recent events:")
            lines.extend(f"    - {event}" for event in self.events)
        return "\n".join(lines)

    def trip(self, reason: str) -> None:
        """Open the breaker now, whatever the thresholds say.

        For supervision layers with their own systemic-failure signal —
        the broker scheduler trips on a stalled queue with no live
        workers — so every fail-fast path raises the same
        :class:`CircuitBreakerOpen` with the same diagnostic summary.
        """
        obs = get_instrumentation()
        obs.registry.counter("campaign_breaker_trips_total").inc()
        obs.events.emit("breaker.open", severity="error", reason=reason,
                        rebuilds=self.rebuilds,
                        failures=self.failures_total)
        raise CircuitBreakerOpen(self.summary(reason))

    def _event(self, event: str) -> None:
        self.events.append(event)
        del self.events[:-self.EVENT_LIMIT]

    _trip = trip


class PoolSupervisor:
    """Owns the campaign's worker pool: submit, kill, rebuild.

    ``ProcessPoolExecutor`` has no per-task cancellation for running
    work, so the only way to reclaim a hung worker is to terminate the
    worker processes and start a fresh pool; the runner then reschedules
    the in-flight keys.  Every rebuild is breaker-gated and reported as
    a ``campaign_pool_rebuilds_total`` counter increment plus a
    ``pool_rebuild`` span.
    """

    def __init__(self, workers: int, mp_context,
                 breaker: CircuitBreaker | None = None):
        self.workers = workers
        self._mp_context = mp_context
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.pool: ProcessPoolExecutor | None = None

    def start(self) -> bool:
        """Build the first pool; False when the platform refuses one."""
        self.pool = self._build_pool()
        return self.pool is not None

    def submit(self, fn: Callable, *args) -> Future:
        if self.pool is None:
            raise WorkerCrashError("worker pool is not running")
        return self.pool.submit(fn, *args)

    def kill(self) -> None:
        """Terminate the worker processes and discard the executor.

        Used both for hung-worker reclamation (rebuild) and for
        emergency shutdown: ``shutdown(wait=True)`` would block on the
        hung run forever.
        """
        pool, self.pool = self.pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass
        for process in processes:
            try:
                process.join(timeout=1.0)
            except (OSError, ValueError, AssertionError):  # pragma: no cover
                pass

    def rebuild(self, reason: str) -> None:
        """Kill-and-respawn cycle, breaker-gated and instrumented."""
        obs = get_instrumentation()
        obs.registry.counter("campaign_pool_rebuilds_total").inc()
        obs.events.emit("pool.rebuild", severity="warning", reason=reason,
                        workers=self.workers)
        with obs.tracer.span("pool_rebuild", reason=reason,
                             workers=self.workers):
            self.kill()
            self.breaker.record_rebuild(reason)  # may raise (pool is dead)
            self.pool = self._build_pool()
        if self.pool is None:
            raise WorkerCrashError(
                f"could not rebuild the worker pool after {reason}")

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=cancel_futures)

    def _build_pool(self) -> ProcessPoolExecutor | None:
        try:
            return ProcessPoolExecutor(max_workers=self.workers,
                                       mp_context=self._mp_context,
                                       initializer=_init_pool_worker)
        except (OSError, PermissionError, ValueError):
            return None


def _init_pool_worker() -> None:
    """Drop what a ``fork`` pool worker inherits from the coordinator:
    the live instrumentation bundle, whose sinks would report every
    event twice, and the :func:`graceful_shutdown` handlers, under which
    ``kill``'s SIGTERM only raises inside the run (the executor ships
    that back, and a worker blocked shipping it outlives ``kill``).
    Ctrl-C reaches the whole process group: workers ignore it, and the
    coordinator drains finished runs, then kills them."""
    reset_instrumentation()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@contextmanager
def graceful_shutdown(signals: tuple[int, ...] = (signal.SIGTERM,
                                                  signal.SIGINT),
                      ) -> Iterator[None]:
    """Raise :class:`ShutdownRequested` on SIGTERM *and* SIGINT.

    SIGTERM is what a fleet scheduler or ``timeout(1)`` sends; SIGINT
    is Ctrl-C.  Registering both unifies interactive interruption with
    the orchestrated stop: one drain-flush-resume path, distinguished
    only by the exit code (``128 + signum``: 130 vs 143).
    :class:`ShutdownRequested` carries the signal number for that.

    Installing a handler is only legal in the main thread; elsewhere
    the context manager degrades to a no-op so library callers never
    crash.  Prior handlers are restored on exit even when installation
    failed partway through.
    """

    def _handler(signum, frame):  # noqa: ARG001 - signal handler signature
        raise ShutdownRequested(signum)

    installed: dict[int, object] = {}
    try:
        try:
            for signum in signals:
                installed[signum] = signal.signal(signum, _handler)
        except ValueError:  # pragma: no cover - non-main thread
            # Restore whatever *did* get installed before degrading to
            # a no-op — a half-installed handler set would otherwise
            # leak past this context manager.
            for signum, previous in installed.items():
                signal.signal(signum, previous)
            installed = {}
        yield
    finally:
        for signum, previous in installed.items():
            signal.signal(signum, previous)


#: The executor-broken exception family the supervisor contains
#: (``BrokenProcessPool`` is a ``BrokenExecutor`` subclass).
POOL_CRASH_ERRORS = (BrokenExecutor,)
