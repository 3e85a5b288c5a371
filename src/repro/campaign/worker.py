"""Broker-drain campaign worker: the ``repro worker`` process body.

A worker attaches to a ``repro broker serve`` over HTTP
(:class:`~repro.campaign.broker_client.BrokerClient`), claims one task
at a time under a heartbeated lease, executes it through the exact
pool-worker entry point (:func:`repro.campaign.runner._execute_worker_task`
— same retry loop, same instrumentation snapshot, which is what keeps
multi-worker campaigns bit-identical to sequential ones), and records
the outcome as a fenced completion.  N workers against one broker
drain a sharded campaign cooperatively; any of them can be SIGKILLed
mid-run and the survivors steal its expired lease.

The loop per claim::

    worker heartbeat  →  claim  →  telemetry flush  →
    decode task  →  execute under a lease-heartbeat thread  →
    complete (a fenced completion is discarded: the run was stolen)

and the worker exits 0 once the queue is sealed and fully drained.
SIGTERM/SIGINT raise :class:`ShutdownRequested` between stages (the
outstanding lease, if any, simply expires and is stolen) and map to
exit ``128 + signum``; a broker that stays unreachable through the
client's retry budget maps to exit 75, and an answer the client cannot
decode (``BrokerError``) to one ``error:`` line and exit 1.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.runner import _execute_worker_task
from repro.campaign.scheduler import decode_payload, encode_payload
from repro.obs import Instrumentation, instrumented, make_instrumentation
from repro.obs.spool import TelemetrySpool
from repro.obs.tracing import Span
from repro.resilience.taskqueue import Claim

logger = logging.getLogger(__name__)

__all__ = ["QueueWorker", "WorkerConfig"]


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerConfig:
    """One worker process's knobs.

    ``broker_url`` is the ``repro broker serve`` to drain.
    ``lease_s`` must match the coordinator's ``lease_timeout_s`` scale:
    the worker heartbeats every ``lease_s / 3``, so a lease only
    expires when the worker is genuinely dead or wedged for most of a
    lease window.  ``attach_timeout_s`` bounds how long the worker
    waits for the coordinator to create the queue before giving up
    (workers are routinely started first).  ``telemetry_dir`` is where
    the durable telemetry spool lives (``<queue-dir>/telemetry`` is
    where ``repro status <queue-dir>`` reads it); without it the
    worker's telemetry stays in-process.
    """

    broker_url: str
    worker_id: str = field(default_factory=_default_worker_id)
    #: ``None`` inherits the lease the coordinator advertised to the
    #: broker (``--lease-timeout``), falling back to 30s.
    lease_s: float | None = None
    poll_s: float = 0.05
    attach_timeout_s: float = 60.0
    telemetry_dir: str | Path | None = None


class QueueWorker:
    """Drain loop over one broker's task queue.

    Every worker keeps a live process-wide instrumentation bundle
    (``obs``) and, with a ``telemetry_dir``, a durable telemetry spool
    at ``<telemetry-dir>/<worker-id>.tspool``: events, finished spans
    and metric snapshots are flushed to it at every claim, every lease
    heartbeat and every completion, so a SIGKILLed worker's partial
    telemetry survives on disk and stays attributable after the run is
    stolen.  The claim-time flush deliberately happens *before* the
    claim executes, so a worker killed mid-run has already left its
    claim on disk — the steal tests (and the paper's crash-forensics
    story) rely on that ordering.
    """

    def __init__(self, config: WorkerConfig,
                 obs: Instrumentation | None = None):
        from repro.campaign.broker_client import BrokerClient

        self.config = config
        self.queue = BrokerClient(config.broker_url, role="worker",
                                  worker_id=config.worker_id)
        self.lease_s = config.lease_s or 30.0
        self.claims = 0
        self.completed = 0
        self.fenced = 0
        self.obs = obs if obs is not None else make_instrumentation()
        self.spool = (TelemetrySpool(config.telemetry_dir, config.worker_id)
                      if config.telemetry_dir is not None else None)
        self._spool_lock = threading.Lock()

    def run(self) -> int:
        """Drain until the queue is sealed and empty; returns exit code.

        Exit 75 (EX_TEMPFAIL) means the broker stayed unreachable
        through the client's whole retry budget: the outstanding lease
        (if any) expires broker-side and is stolen, completed work is
        durable, and restarting this worker against the same broker
        resumes cleanly.
        """
        try:
            attached = self._attach()
        except _broker_unavailable() as error:
            return self._report_unavailable(error)
        if not attached:
            logger.error("worker %s: no task queue appeared at %s "
                         "within %.0fs", self.config.worker_id,
                         self.config.broker_url,
                         self.config.attach_timeout_s)
            return 1
        if self.config.lease_s is None \
                and self.queue.state.default_lease_s is not None:
            self.lease_s = self.queue.state.default_lease_s
        self.obs.events.bind(worker=self.config.worker_id,
                             campaign=self.queue.state.identity)
        if self.spool is not None:
            self.spool.campaign = self.queue.state.identity
        self.obs.events.emit("worker.attach", queue=self.config.broker_url,
                             pid=os.getpid(), lease_s=self.lease_s)
        self._flush_telemetry()
        with instrumented(self.obs):
            try:
                return self._drain()
            except _broker_unavailable() as error:
                return self._report_unavailable(error)

    def _report_unavailable(self, error: Exception) -> int:
        """Broker gone for good (this incarnation): resumable exit 75."""
        self.obs.events.emit("worker.broker_unavailable", severity="error",
                             error=str(error))
        self._flush_telemetry()
        logger.error(
            "worker %s: %s; any outstanding lease will expire and be "
            "stolen — restart this worker to resume draining",
            self.config.worker_id, error,
            extra={"event": "worker.broker_unavailable"})
        return 75  # EX_TEMPFAIL: transient by contract, retry the process

    def _drain(self) -> int:
        while True:
            self.queue.write_worker_heartbeat(self.config.worker_id,
                                              self.lease_s)
            claim = self.queue.claim(self.config.worker_id, self.lease_s)
            if claim is None:
                if self.queue.state.drained():
                    self.obs.events.emit(
                        "worker.drained", completed=self.completed,
                        fenced=self.fenced, claims=self.claims)
                    self._flush_telemetry()
                    logger.info(
                        "worker %s: queue drained (%d completed, "
                        "%d fenced of %d claims)", self.config.worker_id,
                        self.completed, self.fenced, self.claims,
                        extra={"event": "worker.drained"})
                    return 0
                time.sleep(self.config.poll_s)
                continue
            self.claims += 1
            self.obs.events.emit("worker.claim", run_key=claim.key,
                                 token=claim.token, seq=claim.seq)
            self.queue.write_worker_heartbeat(
                self.config.worker_id, self.lease_s,
                run_key=claim.key, token=claim.token)
            # Flush *before* executing: a worker SIGKILLed mid-run
            # must already have its claim event on disk.
            self._flush_telemetry()
            self._execute_claim(claim)

    def _attach(self) -> bool:
        deadline = time.monotonic() + max(0.0, self.config.attach_timeout_s)
        while True:
            if self.queue.open():
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(self.config.poll_s)

    def _execute_claim(self, claim: Claim) -> None:
        task = decode_payload(claim.payload)
        stop = threading.Event()
        beat = threading.Thread(target=self._heartbeat_loop,
                                args=(claim, stop), daemon=True)
        beat.start()
        try:
            outcome = _execute_worker_task(task)
        finally:
            stop.set()
            beat.join(timeout=self.lease_s)
        if self.queue.complete(claim, encode_payload(outcome)):
            self.completed += 1
            # Only a *committed* completion folds its telemetry into
            # this worker's registry/tracer: a fenced outcome will be
            # reproduced (and merged) by the thief, and double-counting
            # it here would break counter reconciliation with the
            # coordinator's final export.
            if outcome.metrics is not None:
                self.obs.registry.merge(outcome.metrics)
            if outcome.spans:
                self.obs.tracer.adopt(
                    [Span.from_dict(data) for data in outcome.spans])
            self.obs.events.emit("worker.complete", severity="debug",
                                 run_key=claim.key, token=claim.token,
                                 attempts=outcome.attempts,
                                 quarantined=outcome.quarantined is not None)
        else:
            # The lease expired mid-run and another worker stole (and
            # will deterministically reproduce) it; discarding here is
            # the no-double-completion guarantee doing its job.
            self.fenced += 1
            self.obs.events.emit("worker.fenced", severity="warning",
                                 run_key=claim.key, token=claim.token,
                                 seq=claim.seq)
            logger.warning("worker %s: completion for task %d fenced off "
                           "(lease stolen mid-run); outcome discarded",
                           self.config.worker_id, claim.seq,
                           extra={"event": "worker.fenced"})
        self._flush_telemetry()

    def _flush_telemetry(self) -> None:
        """Flush events/spans/metrics to the durable spool; never raises.

        Called from both the drain loop and the lease-heartbeat thread,
        hence the lock — the spool's incremental cursors must not race.
        Telemetry failures never fail the campaign: a worker with a
        full disk keeps draining, it just stops being observable.
        """
        if self.spool is None:
            return
        try:
            with self._spool_lock:
                self.spool.flush(self.obs)
        except OSError:  # pragma: no cover - telemetry is best-effort
            logger.warning("worker %s: telemetry spool flush failed",
                           self.config.worker_id, exc_info=True)

    def _heartbeat_loop(self, claim: Claim, stop: threading.Event) -> None:
        interval = max(0.01, self.lease_s / 3.0)
        while not stop.wait(interval):
            try:
                self.queue.write_worker_heartbeat(
                    self.config.worker_id, self.lease_s,
                    run_key=claim.key, token=claim.token)
                if not self.queue.heartbeat(claim, self.lease_s):
                    return  # fenced: the run was stolen, stop renewing
            except _broker_failures():
                # The main loop meets the same latched outage (or its
                # own protocol error) at its next verb; stop renewing.
                return
            self._flush_telemetry()


def _broker_unavailable() -> type[Exception]:
    """Late import: ``import repro.campaign`` never loads the HTTP stack."""
    from repro.campaign.broker_client import BrokerUnavailableError
    return BrokerUnavailableError


def _broker_failures() -> tuple[type[Exception], ...]:
    from repro.campaign.broker_client import BrokerError
    return (_broker_unavailable(), BrokerError)
