"""Pluggable campaign schedulers: inline, process pool, broker.

:class:`~repro.campaign.runner.CampaignRunner` owns *what* to run (the
schedule) and *how to account for it* (checkpoint, outcome events,
in-order merge); a :class:`Scheduler` owns *where the work executes*.
The contract has coordinator verbs only: ``submit`` (hand one task to the
backend), ``seal`` (the schedule is complete), ``drain`` (block for the
head slot's outcome: the schedule-order merge), ``poll`` (the head
outcome within a timeout: the bounded shutdown drain) and ``kill``
(tear execution down *now*), plus ``start``/``window``/``shutdown``
and a ``name`` (what ``campaign.started`` reports).  The worker side
of the broker — claim, heartbeat and complete under a fenced lease —
is :class:`~repro.campaign.broker_client.BrokerClient`, which ``repro
worker`` drives.  Every backend preserves the schedule-order merge
invariant, so results, checkpoint bytes and counters are bit-identical
to sequential execution absent faults.

* :class:`InlineScheduler` — sequential execution in the campaign's
  own process, one run at a time.  The runner picks it for
  ``workers <= 1`` and when no process pool is available.
* :class:`PoolScheduler` — the supervised in-host ``ProcessPool``
  (:class:`~repro.resilience.supervision.PoolSupervisor`).  Submitting
  a task both enqueues and implicitly leases it to the pool, the OS
  scheduler is the heartbeat, and the future's result is the
  completion.  Supervision substitutes for fencing — a hung worker is
  killed, so it can never race its replacement.
* :class:`BrokerScheduler` — the coordinator side of ``repro broker
  serve`` (:mod:`repro.campaign.broker`), whose durable task queue
  (:class:`~repro.resilience.taskqueue.DurableTaskQueue`) N
  independent ``repro worker`` processes drain under leases, with
  lease expiry and fenced work stealing making any worker — and the
  coordinator — SIGKILL-safe.  The coordinator never executes broker
  tasks itself; it routes queue health into the ``repro.obs``
  counters/gauges and the :class:`CircuitBreaker`, and merges
  completions in schedule order.

Task and outcome payloads cross the broker, inside its spool events,
as pickles (compressed, base64-framed text): the exact objects the
pool backend already pickles through the executor, which is what makes
the backends bit-identical.
"""

from __future__ import annotations

import base64
import pickle
import time
import zlib
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
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

__all__ = [
    "BrokerScheduler",
    "DrainResult",
    "InlineScheduler",
    "PendingRun",
    "PoolScheduler",
    "Scheduler",
    "decode_payload",
    "encode_payload",
]


def encode_payload(obj: Any) -> str:
    """Pickle → zlib → base64: an object as a spool-safe JSON string."""
    return base64.b64encode(zlib.compress(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))).decode("ascii")


def decode_payload(text: str) -> Any:
    """Inverse of :func:`encode_payload` (trusts the campaign's own
    broker)."""
    return pickle.loads(zlib.decompress(base64.b64decode(text)))


@dataclass
class PendingRun:
    """One schedule slot awaiting its in-order merge in the parent.

    ``task`` is ``None`` for checkpointed runs restored in-parent;
    ``handle`` is backend-opaque (a pool ``Future``, a broker seq,
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

    #: The backend's name in the ``campaign.started`` event.
    name: str

    def start(self) -> bool:
        """Bring the backend up; False = unavailable on this platform."""
        return True

    def window(self) -> int | None:
        """Max undrained submissions, or ``None`` for submit-everything."""
        return None

    def submit(self, item: PendingRun) -> None:
        raise NotImplementedError

    def seal(self) -> None:
        """The schedule is fully submitted (broker workers may drain out)."""

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

    name = "inline"

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

    name = "pool"

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
        registry = obs.registry
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
# Broker backend (coordinator side)
# ----------------------------------------------------------------------


class BrokerScheduler(Scheduler):
    """Coordinator over a ``repro broker serve`` through a
    :class:`~repro.campaign.broker_client.BrokerClient`.

    Pumping (each ``drain``/``poll`` wait, and ``shutdown``) does three
    things: sync the client's mirror of the broker's spool (which also
    drives broker-side lease expiry), route the new dispositions into
    the ``leases_expired_total`` / ``runs_stolen_total`` counters and
    the circuit breaker (a steal counts as a rebuild, so steal storms
    trip the breaker like crash storms do), and refresh the
    ``queue_depth`` / ``leases_active`` gauges.  A completion the mirror
    already holds merges without a pump.

    ``stall_s`` bounds how long the coordinator waits with zero queue
    activity *and* zero live workers before tripping the breaker with a
    diagnostic summary (``0`` disables — useful when workers attach
    late).  When the client's per-verb retry budget is exhausted
    (``BrokerUnavailableError``: the broker stayed unreachable through
    backoff), every verb trips the breaker with the client's diagnostic
    instead of crashing with a network traceback, which routes into the
    standard flush-checkpoint-print-resume-hint path; the campaign is
    durable on the broker.  The queue-health counters are
    coordinator-only: they do not exist in a sequential run, so
    bit-identity comparisons exclude them (everything else merges in
    schedule order and matches).

    The whole schedule is submitted up front (the default ``window``):
    tasks are small, outcomes wait in the client's spool mirror (which
    ``sync`` fills) until their in-order merge, and workers never
    starve behind the merge.
    ``kill`` has nothing to tear down: workers are independent
    processes that notice the coordinator's absence through their own
    idle/drained exits, and the queue stays durable for a resumed
    coordinator.
    """

    name = "broker"

    def __init__(self, client, breaker: CircuitBreaker,
                 poll_s: float = 0.05, stall_s: float = 60.0,
                 sleep: Callable[[float], None] = time.sleep):
        self.client = client
        self.breaker = breaker
        self.poll_s = max(0.001, poll_s)
        self.stall_s = stall_s
        self.sleep = sleep
        self._last_activity = client.clock()

    @contextmanager
    def _tripping(self):
        """Turn a broker outage into a breaker trip (late import: the
        pool path never loads the broker stack)."""
        from repro.campaign.broker_client import BrokerUnavailableError
        try:
            yield
        except BrokerUnavailableError as error:
            get_instrumentation().events.emit(
                "broker.unavailable", severity="error", error=str(error))
            self.breaker.trip(str(error))  # raises CircuitBreakerOpen

    def start(self) -> bool:
        with self._tripping():
            return self.client.open(create=True)

    def submit(self, item: PendingRun) -> None:
        with self._tripping():
            item.handle = self.client.submit(item.task.key,
                                             encode_payload(item.task))

    def seal(self) -> None:
        with self._tripping():
            self.client.close()

    def _outcome(self, item: PendingRun) -> Any:
        """The slot's decoded outcome (``None``: not yet); pumps only
        when the mirror does not hold it yet."""
        payload = self.client.take_completion(item.handle)
        if payload is None:
            self._pump()
            payload = self.client.take_completion(item.handle)
        return None if payload is None else decode_payload(payload)

    def drain(self, item: PendingRun) -> DrainResult:
        with self._tripping():
            while True:
                outcome = self._outcome(item)
                if outcome is not None:
                    self._last_activity = self.client.clock()
                    return DrainResult(outcome=outcome)
                self._check_stall(item)
                self.sleep(self.poll_s)

    def poll(self, item: PendingRun, timeout_s: float) -> Any:
        with self._tripping():
            deadline = self.client.clock() + max(0.0, timeout_s)
            while True:
                outcome = self._outcome(item)
                if outcome is not None:
                    return outcome
                remaining = deadline - self.client.clock()
                if remaining <= 0:
                    raise FutureTimeoutError(
                        f"task {item.handle} not completed within "
                        f"{timeout_s:.1f}s")
                self.sleep(min(self.poll_s, remaining))

    def shutdown(self) -> None:
        from repro.campaign.broker_client import BrokerUnavailableError
        try:
            self._pump()  # final gauge refresh (depth 0, leases 0)
        except BrokerUnavailableError:
            pass  # the campaign is already merged; losing the final
            #       gauge refresh to an outage is not an error

    # -- pumping -------------------------------------------------------

    def _pump(self) -> None:
        self.client.expire_overdue()
        events = self.client.drain_dispositions()
        if events:
            self._last_activity = self.client.clock()
        obs = get_instrumentation()
        registry = obs.registry
        state = self.client.state
        for disposition, seq, worker in events:
            if disposition == "expire":
                registry.counter("leases_expired_total").inc()
                key = state.tasks[seq].key
                obs.events.emit("queue.lease_expired", severity="warning",
                                run_key=tuple(key), worker=worker or None,
                                seq=seq)
                self.breaker.record_failure(
                    f"lease expired (worker {worker or '?'})", key)
            elif disposition == "steal":
                registry.counter("runs_stolen_total").inc()
                task = state.tasks[seq]
                obs.events.emit("queue.run_stolen", severity="warning",
                                run_key=task.key, token=task.token,
                                worker=worker or None, seq=seq)
                # A steal is the queue backend's kill-and-respawn cycle:
                # count it against the same rebuild budget, so steal
                # storms fail fast with the breaker's summary.
                self.breaker.record_rebuild(
                    f"lease stolen by worker {worker or '?'}")
        registry.gauge("queue_depth").set(state.depth())
        registry.gauge("leases_active").set(
            state.active_leases(self.client.clock()))

    def _check_stall(self, item: PendingRun) -> None:
        if self.stall_s <= 0:
            return
        idle = self.client.clock() - self._last_activity
        if idle < self.stall_s:
            return
        if self.client.live_workers():
            # Workers are alive but silent (e.g. mid-run without a
            # heartbeat tick yet): give them the benefit of the doubt
            # for another stall window.
            self._last_activity = self.client.clock()
            return
        self.breaker.trip(
            f"task queue stalled: no queue activity for {idle:.0f}s, no "
            f"live workers, {self.client.state.depth()} task(s) "
            f"outstanding (head: "
            f"{'/'.join(str(p) for p in item.scheduled.key)}); start "
            f"`repro worker --broker {self.client.base_url}` processes "
            "or resume later — the spool is durable")
