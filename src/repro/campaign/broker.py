"""Campaign broker: the durable task queue over HTTP.

:class:`~repro.resilience.taskqueue.DurableTaskQueue` makes campaign
completion a durability property; :class:`CampaignBroker` is the one
way work reaches it.  The broker is the only process touching the
spool, and every verb — attach / submit / seal / claim / heartbeat /
complete / worker_heartbeat / sync — is one CRC-framed JSON
request line answered by one CRC-framed JSON response line (the
:mod:`repro.resilience.framing` frame, verified again on the far
side) over the hardened stdlib server of :mod:`repro.obs.httpd`, so
workers and the coordinator can live on any machine that can reach
the broker's port, this one included.

**Broker-authoritative clock.**  All lease deadlines are computed from
the *broker's* monotonic clock: clients send lease *durations*, never
absolute deadlines, and expiry decisions happen exclusively
broker-side, so clients need no shared clock.  The replayed
:class:`~repro.resilience.taskqueue.LeaseState` fencing machine
decides every claim, so a stolen run's late ``complete`` is fenced off
across the network.

**Exactly-once under retries.**  Verbs that mutate at most once per
logical operation (claim, complete) carry client-generated idempotency
keys; the broker remembers each key's full response (bounded LRU) and
replays it verbatim when a retried or duplicated request arrives, so a
response lost to the network never claims a second task or turns a
committed completion into a phantom fence.  ``submit`` is idempotent by
schedule key, and ``seal``/``heartbeat``/``worker_heartbeat`` are
naturally idempotent.

**Payloads ride inside the verbs and the spool.**  ``submit`` carries
the task payload into its ``submit`` event, ``claim`` returns the
replayed payload, and ``complete`` carries the outcome into its
``complete`` event, which ``sync`` streams to the coordinator's mirror
with every other spool line.  The spool is the broker's only durable
store: a payload and its event are one fsynced line.

**Graceful degradation.**  ``begin_drain()`` (wired to SIGTERM in
``repro broker serve``) flips the broker into drain mode: mutating
verbs answer 503 with ``Retry-After`` while status/metrics/sync
stay readable, the fsynced spool needs no further flushing, and a
restarted broker against the same queue directory resumes mid-campaign
— clients retry through the outage and re-attach to the same replayed
state.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable

from repro.obs import Instrumentation, make_instrumentation
from repro.obs.httpd import PROMETHEUS_TYPE, HardenedHTTPServer, serve_http
from repro.resilience.checkpoint import CheckpointMismatchError
from repro.resilience.framing import LineReader, frame_object, load_framed_line
from repro.resilience.taskqueue import (
    BROKER_PROTOCOL_VERSION,
    Claim,
    DurableTaskQueue,
    TaskQueueError,
    _finite,
    _int,
    _run_key,
    _seq,
    _text,
)

logger = logging.getLogger(__name__)

__all__ = [
    "BROKER_PROTOCOL_VERSION",
    "CampaignBroker",
    "serve_broker",
]

#: How many idempotency-key responses the broker remembers.
_IDEMPOTENCY_CACHE_SIZE = 4096

_FRAMED_TYPE = "application/x-repro-framed-json"

#: Verbs still answered in drain mode: they only read.
_DRAIN_READABLE = ("/v1/sync",)

#: The most spool bytes one ``sync`` answer carries.
_SYNC_MAX_BYTES = 1 << 20


def _worker_id(value: object) -> str:
    """A worker id: it names the broker-written ``workers/<id>.hb``
    file, so it must be one short path component."""
    if not isinstance(value, str) or not value or "/" in value \
            or "\x00" in value or len(value.encode("utf-8", "replace")) > 200:
        raise ValueError(f"invalid worker id {value!r}")
    return value


def _duration(value: object) -> float:
    """A lease or ttl in seconds: finite and > 0 (a lease born expired
    is stolen at once)."""
    seconds = _finite(value)
    if seconds <= 0:
        raise ValueError(f"expected seconds > 0, got {value!r}")
    return seconds


class CampaignBroker:
    """HTTP-facing owner of one campaign queue directory.

    The broker holds the only :class:`DurableTaskQueue` instance for
    the spool; every request is serialized under one lock (queue verbs
    are append + replay, microseconds each), which also makes the
    idempotency cache race-free.  ``fsync`` covers the spool appends.
    ``handle`` is pure request → response, so the protocol is fully
    unit-testable without sockets; :func:`serve_broker` adds the HTTP
    layer.
    """

    def __init__(self, queue_dir: str | Path,
                 clock: Callable[[], float] = time.monotonic,
                 fsync: bool = True,
                 obs: Instrumentation | None = None):
        self.queue_dir = Path(queue_dir)
        self.clock = clock
        self.fsync = fsync
        self.obs = obs if obs is not None else make_instrumentation()
        self.draining = False
        self._queue: DurableTaskQueue | None = None
        self._key_to_seq: dict[tuple, int] = {}
        self._idem: OrderedDict[str, tuple[int, str, bytes]] = OrderedDict()
        self._mutex = threading.RLock()

    # -- lifecycle ------------------------------------------------------

    def begin_drain(self) -> None:
        """Refuse new mutating verbs (503); reads keep working.

        The spool is fsynced per append, so there is nothing further to
        flush — drain mode exists so clients see a retryable 503 during
        the shutdown window instead of a connection reset, and their
        backoff carries them across a broker restart.
        """
        with self._mutex:
            if self.draining:
                return
            self.draining = True
        self.obs.events.emit("broker.drain", severity="warning",
                             queue=str(self.queue_dir))
        logger.info("broker: draining — mutating verbs now answer 503",
                    extra={"event": "broker.drain"})

    def _ensure_queue(self, create: bool = False,
                      identity: str | None = None,
                      lease_s: float | None = None,
                      ) -> DurableTaskQueue | None:
        """Open (or lazily create) the spool; ``None`` = not ready yet.

        Raises :class:`CheckpointMismatchError` when ``identity`` and
        the spool header both exist and disagree — the 409 the
        coordinator turns back into the same error client-side — and
        :class:`TaskQueueError` when the replay refuses the spool (a
        header of another format version): a 409 too.
        """
        with self._mutex:
            if self._queue is None:
                queue = DurableTaskQueue(
                    self.queue_dir, identity=identity, fsync=self.fsync,
                    default_lease_s=lease_s, clock=self.clock)
                if not queue.open(create=create):
                    return None
                self._queue = queue
                self._key_to_seq = {task.key: seq for seq, task
                                    in queue.state.tasks.items()}
                self.obs.events.emit(
                    "broker.spool_open", queue=str(self.queue_dir),
                    identity=queue.state.identity, created=create)
            else:
                self._queue.check_identity(identity)
            return self._queue

    # -- request entry point --------------------------------------------

    def handle(self, method: str, path: str,
               body: bytes) -> tuple[int, str, bytes]:
        """One verb in, ``(status, content_type, body)`` out."""
        path = path.split("?", 1)[0]
        self.obs.registry.counter("broker_requests_total").inc(
            verb=f"{method} {path}")
        try:
            response = self._route(method, path, body)
        except CheckpointMismatchError as error:
            response = self._error(409, str(error), code="identity_mismatch")
        except TaskQueueError as error:
            response = self._error(409, str(error), code="task_queue")
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            response = self._error(
                400, f"malformed request: {type(error).__name__}: {error}")
        except Exception as error:  # noqa: BLE001 - the broker must answer
            logger.exception("broker: internal error handling %s %s",
                             method, path)
            response = self._error(
                500, f"internal error: {type(error).__name__}: {error}")
        if response[0] >= 400:
            self.obs.registry.counter("broker_request_errors_total").inc(
                status=response[0])
        return response

    def _route(self, method: str, path: str,
               body: bytes) -> tuple[int, str, bytes]:
        if method == "GET":
            if path == "/v1/status":
                return self._ok(self._status_response())
            if path == "/v1/metrics":
                text = self.obs.registry.to_prometheus()
                return 200, PROMETHEUS_TYPE, text.encode("utf-8")
            return self._error(404, f"unknown path {path}")
        if method != "POST":
            return self._error(405, f"{method} not supported")
        handler = {
            "/v1/attach": self._handle_attach,
            "/v1/submit": self._handle_submit,
            "/v1/seal": self._handle_seal,
            "/v1/claim": self._handle_claim,
            "/v1/heartbeat": self._handle_heartbeat,
            "/v1/complete": self._handle_complete,
            "/v1/worker_heartbeat": self._handle_worker_heartbeat,
            "/v1/sync": self._handle_sync,
        }.get(path)
        if handler is None:
            return self._error(404, f"unknown path {path}")
        request = load_framed_line(body)
        if request is None:
            return self._error(400, "request body is not a CRC-framed JSON "
                                    "object")
        if self.draining and path not in _DRAIN_READABLE:
            return self._error(503, "broker draining (shutting down); "
                                    "retry against the restarted broker")
        return handler(request)

    # -- response helpers ----------------------------------------------

    def _ok(self, obj: dict) -> tuple[int, str, bytes]:
        return 200, _FRAMED_TYPE, frame_object(obj, sort_keys=True)

    def _error(self, status: int, message: str,
               code: str | None = None) -> tuple[int, str, bytes]:
        payload: dict = {"error": message}
        if code is not None:
            payload["code"] = code
        return status, _FRAMED_TYPE, frame_object(payload, sort_keys=True)

    def _snapshot(self) -> dict:
        """The status block stapled onto attach/claim/seal/sync replies."""
        now = self.clock()
        queue = self._queue
        if queue is None:
            return {"ready": False, "now": now, "draining": self.draining,
                    "protocol": BROKER_PROTOCOL_VERSION}
        queue.catch_up()
        self._route_dispositions(queue)
        state = queue.state
        return {
            "ready": True,
            "protocol": BROKER_PROTOCOL_VERSION,
            "identity": state.identity,
            "lease_s": state.default_lease_s,
            "closed": state.closed,
            "total": state.total,
            "submitted": state.stats.submitted,
            "completed": state.stats.completed,
            "depth": state.depth(),
            "active_leases": state.active_leases(now),
            "expired": state.stats.expired,
            "stolen": state.stats.stolen,
            "fenced": state.stats.fenced,
            "drained": state.drained(),
            "live_workers": queue.live_workers(),
            "now": now,
            "draining": self.draining,
        }

    def _status_response(self) -> dict:
        with self._mutex:
            queue = self._ensure_queue()
            if queue is not None:
                queue.expire_overdue()
            return self._snapshot()

    def _route_dispositions(self, queue: DurableTaskQueue) -> None:
        """Fold fresh spool events into broker-side telemetry."""
        registry = self.obs.registry
        for disposition, seq, worker in queue.drain_dispositions():
            if disposition == "expire":
                registry.counter("broker_leases_expired_total").inc()
                task = queue.state.tasks.get(seq)
                self.obs.events.emit(
                    "broker.lease_expired", severity="warning",
                    run_key=task.key if task is not None else None,
                    worker=worker or None, seq=seq)
            elif disposition == "steal":
                registry.counter("broker_runs_stolen_total").inc()
                task = queue.state.tasks.get(seq)
                self.obs.events.emit(
                    "broker.run_stolen", severity="warning",
                    run_key=task.key if task is not None else None,
                    worker=worker or None, seq=seq)
            elif disposition == "complete":
                registry.counter("broker_completions_total").inc()
            elif disposition == "fenced":
                registry.counter("broker_fenced_events_total").inc()
        state = queue.state
        registry.gauge("broker_queue_depth").set(state.depth())
        registry.gauge("broker_leases_active").set(
            state.active_leases(self.clock()))

    # -- idempotency ----------------------------------------------------

    def _idem_lookup(self, request: dict) -> tuple[int, str, bytes] | None:
        idem = request.get("idem")
        if not isinstance(idem, str) or not idem:
            return None
        cached = self._idem.get(idem)
        if cached is not None:
            self.obs.registry.counter("broker_idempotent_replays_total").inc()
            self._idem.move_to_end(idem)
        return cached

    def _idem_store(self, request: dict,
                    response: tuple[int, str, bytes]) -> tuple[int, str, bytes]:
        idem = request.get("idem")
        if isinstance(idem, str) and idem:
            self._idem[idem] = response
            while len(self._idem) > _IDEMPOTENCY_CACHE_SIZE:
                self._idem.popitem(last=False)
        return response

    # -- verbs ----------------------------------------------------------

    def _handle_attach(self, request: dict) -> tuple[int, str, bytes]:
        create = bool(request.get("create"))
        identity = request.get("identity")
        lease_s = request.get("lease_s")
        lease_s = None if lease_s is None else _duration(lease_s)
        with self._mutex:
            self._ensure_queue(
                create=create,
                identity=None if identity is None else str(identity),
                lease_s=lease_s)
            # Until a coordinator creates the spool: "ready": False.
            return self._ok(self._snapshot())

    def _handle_submit(self, request: dict) -> tuple[int, str, bytes]:
        key = _run_key(request["key"])
        payload = _text(request["payload"])
        with self._mutex:
            queue = self._ensure_queue()
            if queue is None:
                return self._error(409, "no spool yet: the coordinator must "
                                        "attach with create=true first")
            existing = self._key_to_seq.get(key)
            if existing is not None:
                return self._ok({"seq": existing, **self._snapshot()})
            queue.catch_up()
            seq = max(queue.state.tasks, default=-1) + 1
            queue.submit_at(seq, key, payload)
            self._key_to_seq[key] = seq
            return self._ok({"seq": seq, **self._snapshot()})

    def _handle_seal(self, request: dict) -> tuple[int, str, bytes]:
        with self._mutex:
            queue = self._ensure_queue()
            if queue is None:
                return self._error(409, "no spool yet; nothing to seal")
            queue.close()
            self.obs.events.emit("broker.sealed",
                                 total=queue.state.total)
            return self._ok(self._snapshot())

    def _handle_claim(self, request: dict) -> tuple[int, str, bytes]:
        worker = _worker_id(request["worker"])
        lease_s = _duration(request["lease_s"])
        with self._mutex:
            cached = self._idem_lookup(request)
            if cached is not None:
                return cached
            queue = self._ensure_queue()
            if queue is None:
                return self._ok({"claim": None, **self._snapshot()})
            claim = queue.claim(worker, lease_s)
            payload: dict = {"claim": None}
            if claim is not None:
                payload["claim"] = {
                    "seq": claim.seq, "token": claim.token,
                    "worker": claim.worker, "key": list(claim.key),
                    "payload": claim.payload,
                }
                self.obs.events.emit("broker.claim", severity="debug",
                                     run_key=claim.key, worker=worker,
                                     token=claim.token, seq=claim.seq)
            payload.update(self._snapshot())
            return self._idem_store(request, self._ok(payload))

    def _claim_handle(self, request: dict) -> Claim:
        """A fencing-credentials-only claim for heartbeat/complete."""
        return Claim(seq=_seq(request["seq"]), token=_int(request["token"]),
                     worker=str(request.get("worker", "")), key=(),
                     payload="")

    def _handle_heartbeat(self, request: dict) -> tuple[int, str, bytes]:
        claim = self._claim_handle(request)
        lease_s = _duration(request["lease_s"])
        with self._mutex:
            queue = self._ensure_queue()
            if queue is None:
                return self._ok({"ok": False})
            ok = queue.heartbeat(claim, lease_s)
            return self._ok({"ok": ok, "now": self.clock()})

    def _handle_complete(self, request: dict) -> tuple[int, str, bytes]:
        claim = self._claim_handle(request)
        payload = _text(request["payload"])
        with self._mutex:
            cached = self._idem_lookup(request)
            if cached is not None:
                return cached
            queue = self._ensure_queue()
            if queue is None:
                return self._error(409, "no spool yet; nothing to complete")
            task = queue.state.tasks.get(claim.seq)
            if task is not None and task.done and task.token == claim.token:
                # State-derived replay: this very lease already committed
                # its completion (the earlier response was lost in
                # flight); acknowledging again is the exactly-once
                # contract, not a new event.
                return self._idem_store(request, self._ok({"ok": True}))
            ok = queue.complete(claim, payload)
            if not ok:
                self.obs.registry.counter(
                    "broker_completions_fenced_total").inc()
                self.obs.events.emit("broker.completion_fenced",
                                     severity="warning", seq=claim.seq,
                                     token=claim.token,
                                     worker=claim.worker or None)
            return self._idem_store(request, self._ok({"ok": ok}))

    def _handle_worker_heartbeat(self,
                                 request: dict) -> tuple[int, str, bytes]:
        worker = _worker_id(request["worker"])
        ttl_s = _duration(request["ttl_s"])
        pid = _int(request.get("pid", 0))
        run_key = request.get("run_key")
        run_key = None if run_key is None else _run_key(run_key)
        token = request.get("token")
        token = None if token is None else _int(token)
        with self._mutex:
            queue = self._ensure_queue()
            if queue is None:
                return self._ok({"ok": False})
            queue.write_worker_heartbeat(worker, ttl_s, pid=pid,
                                         run_key=run_key, token=token)
            return self._ok({"ok": True, "now": self.clock()})

    def _handle_sync(self, request: dict) -> tuple[int, str, bytes]:
        offset = _seq(request.get("offset", 0))
        with self._mutex:
            queue = self._ensure_queue()
            if queue is None:
                return self._ok({"events": "", "next_offset": offset,
                                 "status": self._snapshot()})
            queue.expire_overdue()
            # Whole lines, verbatim: undecodable bytes become U+FFFD,
            # which fails the line's CRC on the mirror as on disk.
            lines = LineReader(queue.events_path, offset, _SYNC_MAX_BYTES)
            chunk = b"".join(lines)
            return self._ok({"events": chunk.decode("utf-8", "replace"),
                             "next_offset": lines.offset,
                             "status": self._snapshot()})


def serve_broker(broker: CampaignBroker, port: int, host: str = "127.0.0.1",
                 request_timeout_s: float = 30.0) -> HardenedHTTPServer:
    """Bind ``broker`` to an HTTP server (``port=0`` picks a free one).

    The caller owns the returned server (``serve_forever()`` /
    ``shutdown()``); ``repro broker serve`` blocks on it, tests run it
    in a thread.
    """
    return serve_http(broker.handle, port, host, request_timeout_s)
