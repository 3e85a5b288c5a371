"""Client side of the campaign broker: the queue verbs over HTTP.

:class:`BrokerClient` speaks the task-queue verbs to a ``repro broker
serve`` process: :class:`~repro.campaign.scheduler.BrokerScheduler`
drives its coordinator verbs and :class:`~repro.campaign.worker.QueueWorker`
its worker verbs.  What the network adds:

* **Every call is retried.**  Transport faults (refused, reset, timed
  out, injected), broker 503s (drain mode, a restarting broker behind a
  load balancer) and CRC-invalid response frames all re-send the same
  request under a seeded, capped exponential backoff
  (:class:`~repro.resilience.retry.RetryPolicy` with ``backoff_max_s``).
  Claim and complete carry an **idempotency key** generated once per
  logical operation and reused across its retries, so a response lost
  on the wire replays the broker's original fencing decision instead of
  claiming twice or fencing a committed completion — exactly-once over
  an at-least-once network.

* **Payloads ride inside the verbs.**  ``submit`` carries the task
  payload, ``claim`` returns it and ``complete`` carries the outcome.
  The broker writes each payload into its spool event, so the
  coordinator's mirror receives every outcome with the spool lines
  ``sync`` streams, and :meth:`BrokerClient.take_completion` hands one
  over without a request.  The CRC framing covers payload and verb
  alike, so a mangled payload is re-sent like any other mangled line.

* **The broker's clock is the clock.**  The client sends lease
  *durations* only; :meth:`clock` estimates broker time (local
  monotonic + an offset refreshed from every status snapshot) purely
  for gauges and stall accounting — expiry correctness never leaves
  the broker.

* **Coordinator mirrors, workers snapshot.**  A ``role="coordinator"``
  client replays the broker's spool (``POST /v1/sync`` streams whole
  CRC-framed lines) through its own
  :class:`~repro.resilience.taskqueue.LeaseState` with the same
  :func:`~repro.resilience.taskqueue.replay_line` the broker runs on
  disk, so completions, dispositions and depth agree with the broker
  line for line.  A ``role="worker"`` client only folds the status
  snapshot stapled onto attach/claim responses into a lite state —
  enough for ``drained()`` and the advertised default lease.

When the retry budget for one call is exhausted the client raises
:class:`BrokerUnavailableError` and latches it: the worker loop maps it
to a resumable exit (the outstanding lease expires and is stolen), the
coordinator's :class:`~repro.campaign.scheduler.BrokerScheduler` trips
the circuit breaker into the standard resume-hint path.  Nothing is
lost either way — the broker's spool is the store of record.

* **Answers decode or raise.**  ``open`` refuses a broker advertising
  another ``protocol``, and every field the client reads decodes with
  the spool replay's rules or raises :class:`BrokerError`.
"""

from __future__ import annotations

import http.client
import os
import threading
import time
import urllib.parse
from contextlib import contextmanager
from typing import Callable

from repro.obs import get_instrumentation
from repro.resilience.checkpoint import CheckpointMismatchError
from repro.resilience.framing import frame_object, load_framed_line
from repro.resilience.retry import RetryPolicy
from repro.resilience.taskqueue import (
    BROKER_PROTOCOL_VERSION,
    Claim,
    LeaseState,
    _finite,
    _int,
    _run_key,
    _seq,
    _text,
    replay_line,
)

__all__ = [
    "BrokerClient",
    "BrokerError",
    "BrokerTransportError",
    "BrokerUnavailableError",
    "HTTPTransport",
    "default_broker_retry",
]


class BrokerError(RuntimeError):
    """The broker answered, and the answer is a protocol error
    (malformed request, unknown verb, another protocol version, a
    response field that does not decode) — retrying cannot help."""


class BrokerTransportError(OSError):
    """One request/response exchange failed in a retryable way
    (connection refused/reset/timed out, HTTP-layer garbage)."""


class BrokerUnavailableError(RuntimeError):
    """The retry budget for a verb is exhausted: the broker is treated
    as down.  Latched — every later call fails immediately, so callers
    reach their own degradation path (worker resumable exit, scheduler
    breaker trip) instead of grinding through per-call timeouts."""


def _flag(value: object) -> bool:
    """A boolean response field."""
    if not isinstance(value, bool):
        raise TypeError(f"expected a boolean, got {value!r}")
    return value


def _names(value: object) -> list[str]:
    """A list of worker ids."""
    if not isinstance(value, list) \
            or not all(isinstance(name, str) for name in value):
        raise TypeError(f"expected a list of names, got {value!r}")
    return value


def _optional(decode: Callable[[object], object], value: object):
    return None if value is None else decode(value)


@contextmanager
def _answer(path: str):
    """Decode one 200 answer to ``path``: a missing or undecodable field
    raises :class:`BrokerError`.  Never wrap a ``_call``: its
    ``CheckpointMismatchError`` is a ``ValueError`` too."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise BrokerError(f"POST {path}: malformed broker answer "
                          f"({type(error).__name__}: {error})") from None


def default_broker_retry(seed: int = 0) -> RetryPolicy:
    """The per-verb network retry schedule: ~8 attempts over ~10s.

    Capped backoff (``backoff_max_s``) keeps tail attempts at 2s, long
    enough to ride out a broker restart or drain window without the
    minutes-long sleeps an uncapped exponential would produce.
    """
    return RetryPolicy(max_retries=7, backoff_base_s=0.05,
                       backoff_factor=2.0, jitter=0.25, seed=seed,
                       backoff_max_s=2.0)


class HTTPTransport:
    """One stdlib HTTP request per call, with a bounded socket timeout.

    A fresh connection per request trades a little latency for a lot of
    failure-mode simplicity: there is no shared-socket state for a
    fault or a threaded heartbeat to corrupt, and every retry starts
    clean.  All failures surface as :class:`BrokerTransportError`.
    """

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        if "://" not in base_url:
            base_url = f"http://{base_url}"
        parts = urllib.parse.urlsplit(base_url)
        if parts.scheme != "http":
            raise ValueError(f"broker URL must be http:// (got {base_url})")
        if parts.hostname is None:
            raise ValueError(f"broker URL has no host: {base_url}")
        self.host = parts.hostname
        self.port = parts.port if parts.port is not None else 80
        self.timeout_s = timeout_s

    def __call__(self, method: str, path: str,
                 body: bytes) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s)
        try:
            connection.request(method, path, body=body,
                               headers={"Content-Type":
                                        "application/octet-stream"})
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            raise BrokerTransportError(
                f"{method} {path} against {self.host}:{self.port} failed: "
                f"{type(error).__name__}: {error}") from error
        finally:
            connection.close()


class BrokerClient:
    """The task-queue verbs, spoken over HTTP (see module docstring for
    the protocol-level guarantees).

    Coordinator verbs: ``open(create=True)``, ``submit``, ``close``,
    ``take_completion``, ``expire_overdue``, ``drain_dispositions``,
    ``live_workers``.  Worker verbs: ``open()``, ``claim``,
    ``heartbeat``, ``complete``, ``write_worker_heartbeat``.  Both
    roles read ``state`` (the coordinator's spool mirror, or the
    worker's status snapshot) and ``clock()``.

    ``send`` is injectable — production wires :class:`HTTPTransport`,
    the chaos tests wrap it in a seeded network fault injector, unit
    tests talk straight to ``CampaignBroker.handle``.  Thread-safe for
    the worker's main-loop + lease-heartbeat-thread sharing.
    """

    def __init__(self, base_url: str, *, role: str = "worker",
                 identity: str | None = None,
                 default_lease_s: float | None = None,
                 worker_id: str | None = None,
                 retry: RetryPolicy | None = None,
                 send: Callable[[str, str, bytes], tuple[int, bytes]]
                 | None = None,
                 timeout_s: float = 10.0,
                 sleep: Callable[[float], None] = time.sleep,
                 monotonic: Callable[[], float] = time.monotonic):
        if role not in ("coordinator", "worker"):
            raise ValueError(f"unknown role {role!r}")
        self.base_url = base_url.rstrip("/")
        self.role = role
        self.identity = identity
        self.default_lease_s = default_lease_s
        self.retry = retry if retry is not None else default_broker_retry()
        self.send = send if send is not None \
            else HTTPTransport(self.base_url, timeout_s=timeout_s)
        self.sleep = sleep
        self.state = LeaseState()
        self._monotonic = monotonic
        self._lock = threading.RLock()
        self._clock_offset = 0.0
        self._live_workers: list[str] = []
        self._offset = 0  # mirror replay position into the broker's spool
        self._skipped_lines = 0
        self._dispositions: list[tuple[str, int, str]] = []
        self._down: str | None = None
        self._idem_prefix = (f"{worker_id or role}-{os.getpid()}-"
                             f"{os.urandom(3).hex()}")
        self._idem_counter = 0

    # -- plumbing -------------------------------------------------------

    def clock(self) -> float:
        """Estimated broker-monotonic time (gauges and stall accounting
        only — lease expiry is decided exclusively on the broker)."""
        with self._lock:
            return self._monotonic() + self._clock_offset

    def _next_idem(self) -> str:
        with self._lock:
            self._idem_counter += 1
            return f"{self._idem_prefix}-{self._idem_counter}"

    def _call(self, method: str, path: str, obj: dict | None = None, *,
              idem: str | None = None) -> dict:
        """Send one verb with the full retry/backoff/framing treatment
        and return the decoded response.

        The idempotency key, when given, was generated by the caller
        *once* — every retry resends it, which is the whole point.
        """
        with self._lock:
            if self._down is not None:
                raise BrokerUnavailableError(self._down)
        request = dict(obj or {})
        if idem is not None:
            request["idem"] = idem
        body = frame_object(request, sort_keys=True)
        attempts = self.retry.max_retries + 1
        last_error = "no attempt made"
        for attempt in range(attempts):
            if attempt:
                get_instrumentation().registry.counter(
                    "broker_client_retries_total").inc(path=path)
                delay = self.retry.backoff_s((path,), attempt - 1)
                if delay > 0:
                    self.sleep(delay)
            try:
                status, payload = self.send(method, path, body)
            except OSError as error:  # incl. transport + injected faults
                last_error = f"{type(error).__name__}: {error}"
                continue
            if status == 503:
                last_error = f"HTTP {status}"
                continue
            decoded = load_framed_line(payload)
            if decoded is None:
                # Bit-flipped/truncated in flight: the CRC framing caught
                # it, and the verb is safe to re-send (idempotency keys
                # cover the mutating ones).
                last_error = "response failed CRC framing"
                continue
            if status == 200:
                return decoded
            message = str(decoded.get("error", f"HTTP {status}"))
            if decoded.get("code") == "identity_mismatch":
                raise CheckpointMismatchError(message)
            raise BrokerError(f"{method} {path}: {message} (HTTP {status})")
        message = (f"broker {self.base_url} unreachable: {method} {path} "
                   f"failed after {attempts} attempts (last: {last_error}); "
                   f"campaign state is durable on the broker — restart "
                   f"against the same broker/queue to resume")
        with self._lock:
            self._down = message
        raise BrokerUnavailableError(message)

    def _absorb(self, status: object, path: str) -> bool:
        """Fold a broker status snapshot into client-side views; returns
        whether the broker's queue exists (``ready``)."""
        with _answer(path):
            if not isinstance(status, dict):
                raise TypeError(f"expected a status object, got {status!r}")
            now = _finite(status["now"])
            ready = _flag(status["ready"])
            if ready:
                workers = _names(status["live_workers"])
                identity = _optional(_text, status["identity"])
                lease = _optional(_finite, status["lease_s"])
                closed = _flag(status["closed"])
                total = _optional(_int, status["total"])
                completed = _int(status["completed"])
                submitted = _int(status["submitted"])
        with self._lock:
            self._clock_offset = now - self._monotonic()
            if not ready:
                return False
            self._live_workers = workers
            state = self.state
            if state.identity is None:
                state.identity = identity
            if state.default_lease_s is None:
                state.default_lease_s = lease
            if self.role != "coordinator":
                # No event mirror on the worker side: project the
                # snapshot into the lite state so drained() works.
                state.closed, state.total = closed, total
                state.stats.completed = completed
                state.stats.submitted = submitted
        return True

    # -- spool mirror (coordinator) -------------------------------------

    def _sync(self) -> None:
        """Pull and replay new spool events (also drives broker-side
        lease expiry, which happens inside the sync handler)."""
        response = self._call("POST", "/v1/sync", {"offset": self._offset})
        with _answer("/v1/sync"):
            lines = _text(response["events"]).encode("utf-8").split(b"\n")
            next_offset = _seq(response["next_offset"])
        self._absorb(response.get("status"), "/v1/sync")
        for line in lines:
            if not line.strip():
                continue
            observed = replay_line(self.state, line)
            if observed is None:
                # A corrupt spool line (a torn-tail fragment the
                # broker's writer repaired around) is skipped, as in
                # the broker's own replay.  Whole-response corruption
                # was already caught by the response framing in _call.
                self._skipped_lines += 1
            else:
                self._dispositions.append(observed)
        self._offset = next_offset

    # -- lifecycle -------------------------------------------------------

    def open(self, create: bool = False) -> bool:
        """Attach; False while the coordinator has not created the
        queue.  A coordinator's identity is checked broker-side: a
        mismatch is a 409 that :meth:`_call` raises as
        ``CheckpointMismatchError``."""
        request: dict = {"create": create}
        if create and self.identity is not None:
            request["identity"] = self.identity
        if create and self.default_lease_s is not None:
            request["lease_s"] = self.default_lease_s
        response = self._call("POST", "/v1/attach", request)
        protocol = response.get("protocol")
        if isinstance(protocol, bool) or protocol != BROKER_PROTOCOL_VERSION:
            raise BrokerError(
                f"broker {self.base_url} speaks protocol {protocol!r}, this "
                f"client protocol {BROKER_PROTOCOL_VERSION}: run the same "
                f"repro version on both ends")
        if not self._absorb(response, "/v1/attach"):
            return False
        if self.role == "coordinator":
            self._sync()
        return True

    # -- coordinator verbs -----------------------------------------------

    def submit(self, key: tuple, payload: str) -> int:
        response = self._call("POST", "/v1/submit",
                              {"key": list(key), "payload": payload})
        with _answer("/v1/submit"):
            seq = _seq(response["seq"])
        self._absorb(response, "/v1/submit")
        return seq

    def close(self) -> None:
        self._absorb(self._call("POST", "/v1/seal", {}), "/v1/seal")

    def take_completion(self, seq: int) -> str | None:
        """The mirrored outcome of task ``seq``, handed over once and
        then dropped from the mirror (``None``: not complete yet, or
        already taken).  Sends no request: ``sync`` brought it."""
        task = self.state.tasks.get(seq)
        if task is None or not task.done:
            return None
        outcome, task.outcome = task.outcome, None
        return outcome or None

    def expire_overdue(self) -> None:
        # Expiry is the broker's decision (its clock, its spool); the
        # coordinator's pump calls this, so piggyback the mirror sync —
        # the resulting expire events come back as dispositions.
        self._sync()

    def drain_dispositions(self) -> list[tuple[str, int, str]]:
        out, self._dispositions = self._dispositions, []
        return out

    # -- worker verbs ----------------------------------------------------

    def claim(self, worker: str, lease_s: float) -> Claim | None:
        response = self._call("POST", "/v1/claim",
                              {"worker": worker, "lease_s": lease_s},
                              idem=self._next_idem())
        with _answer("/v1/claim"):
            claimed = response["claim"]
            claim = None if claimed is None else Claim(
                seq=_seq(claimed["seq"]), token=_int(claimed["token"]),
                worker=_text(claimed["worker"]),
                key=_run_key(claimed["key"]),
                payload=_text(claimed["payload"]))
        self._absorb(response, "/v1/claim")
        return claim

    def heartbeat(self, claim: Claim, lease_s: float) -> bool:
        response = self._call("POST", "/v1/heartbeat",
                              {"seq": claim.seq, "token": claim.token,
                               "worker": claim.worker, "lease_s": lease_s})
        with _answer("/v1/heartbeat"):
            return _flag(response["ok"])

    def complete(self, claim: Claim, payload: str) -> bool:
        response = self._call("POST", "/v1/complete",
                              {"seq": claim.seq, "token": claim.token,
                               "worker": claim.worker, "payload": payload},
                              idem=self._next_idem())
        with _answer("/v1/complete"):
            return _flag(response["ok"])

    def write_worker_heartbeat(self, worker: str, ttl_s: float,
                               run_key: tuple | None = None,
                               token: int | None = None) -> None:
        request: dict = {"worker": worker, "ttl_s": ttl_s,
                         "pid": os.getpid()}
        if run_key is not None:
            request["run_key"] = list(run_key)
        if token is not None:
            request["token"] = token
        self._call("POST", "/v1/worker_heartbeat", request)

    def live_workers(self) -> list[str]:
        with self._lock:
            return list(self._live_workers)
