"""Pluggable campaign schedulers: inline, process pool, durable task queue.

:class:`~repro.campaign.runner.CampaignRunner` owns *what* to run (the
schedule) and *how to account for it* (checkpoint, progress, in-order
merge); a :class:`Scheduler` owns *where the work executes*.  The
contract has coordinator verbs only: ``submit`` (hand one task to the
backend), ``seal`` (the schedule is complete), ``drain`` (block for the
head slot's outcome: the schedule-order merge), ``poll`` (the head
outcome within a timeout: the bounded shutdown drain) and ``kill``
(tear execution down *now*), plus ``start``/``window``/``shutdown``.
The worker side of the queue backends — claim, heartbeat and complete
under a fenced lease — is :class:`~repro.resilience.taskqueue.QueueTransport`,
which ``repro worker`` and the broker call directly.  Every backend
preserves the schedule-order merge invariant, so results, checkpoint
bytes and counters are bit-identical to sequential execution absent
faults.

* :class:`InlineScheduler` — sequential execution in the campaign's
  own process, one run at a time.  The runner picks it for
  ``workers <= 1``, for custom ``run_fn``/``sleep`` hooks, and when no
  process pool is available.
* :class:`PoolScheduler` — the supervised in-host ``ProcessPool``
  (:class:`~repro.resilience.supervision.PoolSupervisor`).  Submitting
  a task both enqueues and implicitly leases it to the pool, the OS
  scheduler is the heartbeat, and the future's result is the
  completion.  Supervision substitutes for fencing — a hung worker is
  killed, so it can never race its replacement.
* :class:`QueueScheduler` — the coordinator side of the durable
  on-disk queue (:class:`~repro.resilience.taskqueue.DurableTaskQueue`).
  Tasks are spooled as CRC-framed events; N independent ``repro
  worker`` processes claim/heartbeat/complete them directly against
  the spool (see :mod:`repro.campaign.worker`), with lease expiry and
  fenced work stealing making any worker — and the coordinator —
  SIGKILL-safe.  The coordinator never executes queue tasks itself; it
  expires stale leases, routes queue health into the ``repro.obs``
  counters/gauges and the :class:`CircuitBreaker`, and merges
  completions in schedule order.

Task and outcome payloads cross the spool as pickles (compressed,
base64-framed into the JSON event): the exact objects the pool backend
already pickles through the executor, which is what makes the two
backends bit-identical.
"""

from __future__ import annotations

import base64
import pickle
import time
import zlib
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs import get_instrumentation
from repro.resilience.supervision import (
    POOL_CRASH_ERRORS,
    CircuitBreaker,
    PoolSupervisor,
    RunTimeoutError,
    WorkerCrashError,
)
from repro.resilience.taskqueue import QueueTransport

__all__ = [
    "BrokerScheduler",
    "DrainResult",
    "InlineScheduler",
    "PendingRun",
    "PoolScheduler",
    "QueueScheduler",
    "Scheduler",
    "decode_payload",
    "encode_payload",
]


def encode_payload(obj: Any) -> str:
    """Pickle → zlib → base64: an object as a spool-safe JSON string."""
    return base64.b64encode(zlib.compress(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))).decode("ascii")


def decode_payload(text: str) -> Any:
    """Inverse of :func:`encode_payload` (trusts the local spool)."""
    return pickle.loads(zlib.decompress(base64.b64decode(text)))


@dataclass
class PendingRun:
    """One schedule slot awaiting its in-order merge in the parent.

    ``task`` is ``None`` for checkpointed runs restored in-parent;
    ``handle`` is backend-opaque (a pool ``Future``, a queue seq,
    ``None`` inline).  ``kills`` counts how many times supervision killed the
    worker this run was blamed for (bounded by the retry policy).
    """

    scheduled: Any
    task: Any = None
    handle: Any = None
    kills: int = 0


@dataclass
class DrainResult:
    """What draining one head slot produced.

    Exactly one of ``outcome`` (the worker's ``_WorkerOutcome``) and
    ``error`` (supervision gave the run up after ``attempts`` kills;
    the runner quarantines it) is set.
    """

    outcome: Any = None
    error: Exception | None = None
    attempts: int = 0


class Scheduler:
    """The pluggable execution backend contract (see module docstring):
    ``start``, ``window``, ``submit``, ``seal``, ``drain``, ``poll``,
    ``kill``, ``shutdown``."""

    def start(self) -> bool:
        """Bring the backend up; False = unavailable on this platform."""
        return True

    def window(self) -> int | None:
        """Max undrained submissions, or ``None`` for submit-everything."""
        return None

    def submit(self, item: PendingRun) -> None:
        raise NotImplementedError

    def seal(self) -> None:
        """The schedule is fully submitted (queue workers may drain out)."""

    def drain(self, item: PendingRun) -> DrainResult:
        """Block until the head slot's outcome (or give-up) is known."""
        raise NotImplementedError

    def poll(self, item: PendingRun, timeout_s: float) -> Any:
        """Outcome if it lands within ``timeout_s``; raises otherwise.

        The bounded shutdown drain uses this: any exception (timeout,
        crash, cancellation) tells the runner to stop draining.
        """
        raise NotImplementedError

    def kill(self) -> None:
        """Emergency teardown (breaker trip, shutdown past the grace)."""

    def shutdown(self) -> None:
        """Orderly teardown after a fully drained schedule."""


# ----------------------------------------------------------------------
# In-process backend
# ----------------------------------------------------------------------


class InlineScheduler(Scheduler):
    """Sequential execution in the campaign's own process.

    ``run`` executes one slot into the active instrumentation bundle
    and returns its outcome (injected, like the pool's ``worker_fn``,
    so this module never imports the runner).  The window is 1: a slot
    runs when it is drained, right after its submission, so each run's
    checkpoint append lands before the next run starts (what
    kill-and-resume relies on) and at most one outcome is held.  The
    shutdown drain thus never finds an unmerged slot to ``poll``.
    """

    def __init__(self, run: Callable[[PendingRun], Any]):
        self.run = run

    def window(self) -> int | None:
        return 1

    def submit(self, item: PendingRun) -> None:
        """Nothing to hand over: the slot runs when it is drained."""

    def drain(self, item: PendingRun) -> DrainResult:
        return DrainResult(outcome=self.run(item))


# ----------------------------------------------------------------------
# Process-pool backend
# ----------------------------------------------------------------------


class PoolScheduler(Scheduler):
    """The supervised in-host ProcessPool backend.

    ``worker_fn`` is the pool entry point (the runner's
    ``_execute_worker_task``) — injected so this module never imports
    the runner.  ``wait_budget_s`` is the parent-side hard deadline per
    head future (``None`` = wait forever); blowing it, or breaking the
    pool, triggers the kill → rebuild → reschedule-in-flight cycle from
    the supervision layer, bounded by ``policy.max_retries`` per run
    and by the circuit breaker overall.
    """

    def __init__(self, workers: int, mp_context, breaker: CircuitBreaker,
                 policy, wait_budget_s: float | None,
                 worker_fn: Callable[[Any], Any]):
        self.workers = workers
        self.breaker = breaker
        self.policy = policy
        self.wait_budget_s = wait_budget_s
        self.worker_fn = worker_fn
        self.supervisor = PoolSupervisor(workers, mp_context, breaker)
        self._in_flight: list[PendingRun] = []

    def start(self) -> bool:
        return self.supervisor.start()

    def window(self) -> int | None:
        # Bound how many undrained futures exist at once: payloads can
        # carry full traces (checkpointing), so an unbounded backlog of
        # out-of-order completions would hold a campaign's worth of
        # traces in memory.
        return max(4 * self.workers, self.workers + 1)

    def submit(self, item: PendingRun) -> None:
        item.handle = self.supervisor.submit(self.worker_fn, item.task)
        self._in_flight.append(item)

    def _resubmit(self, item: PendingRun) -> None:
        item.handle = self.supervisor.submit(self.worker_fn, item.task)

    def _reschedule_in_flight(self, head: PendingRun) -> None:
        """Resubmit every run the dead pool took down with it.

        Futures that completed *before* the pool died keep their
        results; everything else (running, queued-then-cancelled,
        poisoned with the pool's BrokenProcessPool) is resubmitted to
        the fresh pool.
        """
        rescheduled = 0
        for item in self._in_flight:
            if item is head or item.task is None or item.handle is None:
                continue
            if item.handle.done() and not item.handle.cancelled() \
                    and item.handle.exception() is None:
                continue
            self._resubmit(item)
            rescheduled += 1
        if rescheduled:
            get_instrumentation().registry.counter(
                "campaign_runs_rescheduled_total").inc(rescheduled)

    def drain(self, item: PendingRun) -> DrainResult:
        """Await one head future under the parent's hard deadline.

        A worker that merely *times out* cooperatively still returns an
        outcome — the recovery path only fires for genuinely hung or
        crashed workers, so fault-free campaigns never enter it and
        stay bit-identical to sequential execution.
        """
        obs = get_instrumentation()
        registry, progress = obs.registry, obs.progress
        try:
            while True:
                try:
                    return DrainResult(
                        outcome=item.handle.result(timeout=self.wait_budget_s))
                except FutureTimeoutError:
                    registry.counter("campaign_run_timeouts_total").inc()
                    obs.events.emit("supervision.hung_run", severity="error",
                                    run_key=item.scheduled.key,
                                    budget_s=self.wait_budget_s)
                    self.breaker.record_failure("hung run",
                                                item.scheduled.key)
                    self.supervisor.rebuild("hung run")  # breaker-gated
                    item.kills += 1
                    self._reschedule_in_flight(item)
                    error: Exception = RunTimeoutError(
                        "run exceeded its supervision deadline "
                        f"({self.wait_budget_s:.1f}s) without yielding; "
                        "worker killed", budget_s=self.wait_budget_s)
                except (CancelledError, *POOL_CRASH_ERRORS) as crash:
                    obs.events.emit("supervision.worker_crash",
                                    severity="error",
                                    run_key=item.scheduled.key,
                                    error=type(crash).__name__)
                    self.breaker.record_failure("worker crash",
                                                item.scheduled.key)
                    # Rebuild unconditionally: rescheduling the in-flight
                    # keys is only safe against a freshly killed pool.
                    self.supervisor.rebuild("worker crash")  # breaker-gated
                    item.kills += 1
                    self._reschedule_in_flight(item)
                    error = WorkerCrashError(
                        "worker died abnormally mid-run "
                        f"({type(crash).__name__}); the oldest in-flight "
                        "run is blamed")
                if item.kills > self.policy.max_retries:
                    return DrainResult(error=error, attempts=item.kills)
                registry.counter("campaign_run_retries_total").inc()
                registry.counter("campaign_runs_retried_total").inc()
                progress.run_retried(item.scheduled.key, 1)
                self._resubmit(item)
        finally:
            try:
                self._in_flight.remove(item)
            except ValueError:  # pragma: no cover - defensive
                pass

    def poll(self, item: PendingRun, timeout_s: float) -> Any:
        return item.handle.result(timeout=max(0.0, timeout_s))

    def kill(self) -> None:
        self.supervisor.kill()

    def shutdown(self) -> None:
        self.supervisor.shutdown()


# ----------------------------------------------------------------------
# Durable task-queue backend (coordinator side)
# ----------------------------------------------------------------------


class QueueScheduler(Scheduler):
    """Coordinator over a :class:`DurableTaskQueue` spool.

    Pumping (every ``drain``/``poll`` iteration) does four things:
    replay new spool events, route their dispositions into the
    ``leases_expired_total`` / ``runs_stolen_total`` counters and the
    circuit breaker (a steal counts as a rebuild, so steal storms trip
    the breaker like crash storms do), requeue overdue leases, and
    refresh the ``queue_depth`` / ``leases_active`` gauges.

    ``stall_s`` bounds how long the coordinator waits with zero queue
    activity *and* zero live workers before tripping the breaker with a
    diagnostic summary (``0`` disables — useful when workers attach
    late).  The queue-health counters are coordinator-only: they do not
    exist in a sequential run, so bit-identity comparisons exclude
    them (everything else merges in schedule order and matches).
    """

    def __init__(self, queue: QueueTransport, breaker: CircuitBreaker,
                 poll_s: float = 0.05, stall_s: float = 60.0,
                 sleep: Callable[[float], None] = time.sleep):
        self.queue = queue
        self.breaker = breaker
        self.poll_s = max(0.001, poll_s)
        self.stall_s = stall_s
        self.sleep = sleep
        #: The stall diagnostic's "how to unwedge this" hint; the broker
        #: scheduler overrides it with its --broker form.
        self.worker_hint = f"repro worker --queue-dir " \
                           f"{getattr(queue, 'root', '?')}"
        self._last_activity = queue.clock()

    def start(self) -> bool:
        return self.queue.open(create=True)

    def window(self) -> int | None:
        # Submit the whole schedule up front: tasks are small (no
        # traces), completion payloads stay on disk until their in-order
        # merge, and workers should never starve behind the merge.
        return None

    def submit(self, item: PendingRun) -> None:
        item.handle = self.queue.submit(item.task.key,
                                        encode_payload(item.task))

    def seal(self) -> None:
        self.queue.close()

    def drain(self, item: PendingRun) -> DrainResult:
        while True:
            self._pump()
            payload = self.queue.take_completion(item.handle)
            if payload is not None:
                self._last_activity = self.queue.clock()
                return DrainResult(outcome=decode_payload(payload))
            self._check_stall(item)
            self.sleep(self.poll_s)

    def poll(self, item: PendingRun, timeout_s: float) -> Any:
        deadline = self.queue.clock() + max(0.0, timeout_s)
        while True:
            self._pump()
            payload = self.queue.take_completion(item.handle)
            if payload is not None:
                return decode_payload(payload)
            remaining = deadline - self.queue.clock()
            if remaining <= 0:
                raise FutureTimeoutError(
                    f"task {item.handle} not completed within {timeout_s:.1f}s")
            self.sleep(min(self.poll_s, remaining))

    def kill(self) -> None:
        """Nothing to tear down: workers are independent processes that
        notice the coordinator's absence through their own idle/drained
        exits; the spool stays durable for a resumed coordinator."""

    def shutdown(self) -> None:
        self._pump()  # final gauge refresh (depth 0, leases 0)

    # -- pumping -------------------------------------------------------

    def _pump(self) -> None:
        self.queue.expire_overdue()
        events = self.queue.drain_dispositions()
        if events:
            self._last_activity = self.queue.clock()
        obs = get_instrumentation()
        registry = obs.registry
        for disposition, seq, worker in events:
            if disposition == "expire":
                registry.counter("leases_expired_total").inc()
                task = self.queue.state.tasks.get(seq)
                key = task.key if task is not None else (str(seq),)
                obs.events.emit("queue.lease_expired", severity="warning",
                                run_key=tuple(key), worker=worker or None,
                                seq=seq)
                self.breaker.record_failure(
                    f"lease expired (worker {worker or '?'})", key)
            elif disposition == "steal":
                registry.counter("runs_stolen_total").inc()
                task = self.queue.state.tasks.get(seq)
                obs.events.emit(
                    "queue.run_stolen", severity="warning",
                    run_key=task.key if task is not None else None,
                    token=task.token if task is not None else None,
                    worker=worker or None, seq=seq)
                # A steal is the queue backend's kill-and-respawn cycle:
                # count it against the same rebuild budget, so steal
                # storms fail fast with the breaker's summary.
                self.breaker.record_rebuild(
                    f"lease stolen by worker {worker or '?'}")
        state = self.queue.state
        registry.gauge("queue_depth").set(state.depth())
        registry.gauge("leases_active").set(
            state.active_leases(self.queue.clock()))

    def _check_stall(self, item: PendingRun) -> None:
        if self.stall_s <= 0:
            return
        idle = self.queue.clock() - self._last_activity
        if idle < self.stall_s:
            return
        if self.queue.live_workers():
            # Workers are alive but silent (e.g. mid-run without a
            # heartbeat tick yet): give them the benefit of the doubt
            # for another stall window.
            self._last_activity = self.queue.clock()
            return
        self.breaker.trip(
            f"task queue stalled: no queue activity for {idle:.0f}s, no "
            f"live workers, {self.queue.state.depth()} task(s) outstanding "
            f"(head: {'/'.join(str(p) for p in item.scheduled.key)}); "
            f"start `{self.worker_hint}` processes "
            "or resume later — the spool is durable")


# ----------------------------------------------------------------------
# Cross-host broker backend (coordinator side)
# ----------------------------------------------------------------------


class BrokerScheduler(QueueScheduler):
    """:class:`QueueScheduler` over a network
    :class:`~repro.campaign.broker_client.BrokerClient` instead of a
    local spool.

    The pump/merge/stall machinery is inherited unchanged — the client
    implements the same :class:`~repro.resilience.taskqueue.QueueTransport`
    verbs and mirrors the broker's spool through the same
    :class:`~repro.resilience.taskqueue.LeaseState`.  What this subclass
    adds is *graceful degradation*: when the client's per-verb retry
    budget is exhausted (:class:`BrokerUnavailableError` — the broker
    stayed unreachable through backoff), the coordinator trips the
    circuit breaker with the client's diagnostic instead of crashing
    with a raw network traceback, which routes into the standard
    flush-checkpoint-print-resume-hint path.  Campaign state is durable
    on the broker, so resuming against the same broker URL continues
    where the outage struck.
    """

    def __init__(self, client, breaker: CircuitBreaker,
                 poll_s: float = 0.05, stall_s: float = 60.0,
                 sleep: Callable[[float], None] = time.sleep):
        super().__init__(client, breaker, poll_s=poll_s, stall_s=stall_s,
                         sleep=sleep)
        self.worker_hint = f"repro worker --broker {client.base_url}"

    def _trip_unavailable(self, error: Exception) -> None:
        get_instrumentation().events.emit(
            "broker.unavailable", severity="error", error=str(error))
        self.breaker.trip(str(error))  # raises CircuitBreakerOpen

    def start(self) -> bool:
        try:
            return super().start()
        except _broker_unavailable() as error:
            self._trip_unavailable(error)
            raise  # pragma: no cover - trip always raises

    def submit(self, item: PendingRun) -> None:
        try:
            super().submit(item)
        except _broker_unavailable() as error:
            self._trip_unavailable(error)

    def seal(self) -> None:
        try:
            super().seal()
        except _broker_unavailable() as error:
            self._trip_unavailable(error)

    def drain(self, item: PendingRun) -> DrainResult:
        try:
            return super().drain(item)
        except _broker_unavailable() as error:
            self._trip_unavailable(error)
            raise  # pragma: no cover - trip always raises

    def poll(self, item: PendingRun, timeout_s: float) -> Any:
        try:
            return super().poll(item, timeout_s)
        except _broker_unavailable() as error:
            self._trip_unavailable(error)
            raise  # pragma: no cover - trip always raises

    def shutdown(self) -> None:
        try:
            super().shutdown()
        except _broker_unavailable():
            pass  # the campaign is already merged; losing the final
            #       gauge refresh to an outage is not an error


def _broker_unavailable() -> type[Exception]:
    """Late import: the scheduler must stay importable without the
    broker stack (the pool path never touches it)."""
    from repro.campaign.broker_client import BrokerUnavailableError
    return BrokerUnavailableError
