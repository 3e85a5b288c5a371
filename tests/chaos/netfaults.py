"""Seeded network fault injection for the campaign broker transport.

The broker chaos tests need a *lossy network* that is deterministic
per seed: requests dropped before they reach the broker, responses
dropped after the broker committed the verb (the at-least-once hazard
that makes idempotency keys necessary), duplicated deliveries,
injected 503s, mangled response bodies (caught by the CRC line
framing) and sustained partitions.  The injector wraps the client's
low-level send callable, so every fault exercises the exact
retry/idempotency path production traffic uses — nothing is mocked
above the socket boundary.  :mod:`tests.chaos.launch` installs it
around ``repro.campaign.broker_client.HTTPTransport`` for the
end-to-end subprocess tests.

Fault decisions are drawn from one ``random.Random(seed)`` under a
lock, in request order; a single-threaded client therefore sees an
exactly reproducible fault schedule, and multi-threaded clients a
deterministic fault *budget* (the set of decisions) with
interleaving-dependent assignment — the chaos suite asserts
invariants, not traces.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "NET_FAULT_KINDS",
    "InjectedNetworkFault",
    "NetFaultReport",
    "NetworkFaultInjector",
]

#: Everything the injector can do to one request/response exchange.
NET_FAULT_KINDS: tuple[str, ...] = (
    "drop_request",     # never reaches the broker
    "drop_response",    # broker committed the verb; client never learns
    "duplicate",        # delivered twice, back to back
    "delay",            # delivered late (bounded seeded delay)
    "error_503",        # a load balancer answering for a dead broker
    "mangle_response",  # response body bit-flipped in flight
)


class InjectedNetworkFault(ConnectionError):
    """A request or response the injector made disappear.

    A ``ConnectionError`` so the broker client's transport-fault
    handling treats it exactly like a real refused/reset connection.
    """


@dataclass
class NetFaultReport:
    """What the injector did, for assertions and chaos summaries."""

    requests: int = 0
    faults: int = 0
    counts: dict = field(default_factory=dict)

    def record(self, kind: str) -> None:
        self.faults += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def summary(self) -> str:
        detail = ", ".join(f"{kind}={count}" for kind, count
                           in sorted(self.counts.items()))
        return (f"{self.faults}/{self.requests} requests faulted"
                + (f" ({detail})" if detail else ""))


class NetworkFaultInjector:
    """Wrap a ``send(method, path, body) -> (status, body)`` callable.

    ``rate`` is the per-request probability of drawing a fault from
    ``kinds``.  ``partition_every``/``partition_length`` additionally
    impose sustained request-count-based partitions: after every
    ``partition_every`` delivered requests, the next
    ``partition_length`` requests are all dropped — deterministic
    multi-request outage windows that per-request sampling alone never
    produces.  ``delay_s`` bounds the seeded delay fault; ``sleep`` is
    injectable so tests can run delay faults without waiting.
    """

    def __init__(self, send: Callable[[str, str, bytes], tuple[int, bytes]],
                 seed: int = 0, rate: float = 0.2,
                 kinds: tuple[str, ...] = NET_FAULT_KINDS,
                 partition_every: int | None = None,
                 partition_length: int = 5,
                 delay_s: float = 0.02,
                 sleep: Callable[[float], None] = time.sleep):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        unknown = set(kinds) - set(NET_FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        self.send = send
        self.kinds = tuple(kinds)
        self.rate = rate
        self.partition_every = partition_every
        self.partition_length = partition_length
        self.delay_s = delay_s
        self.sleep = sleep
        self.report = NetFaultReport()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def _decide(self) -> str | None:
        """One seeded fault decision, drawn in request order."""
        with self._lock:
            index = self.report.requests
            self.report.requests += 1
            if self.partition_every is not None:
                cycle = self.partition_every + self.partition_length
                if index % cycle >= self.partition_every:
                    self.report.record("partition")
                    return "drop_request"
            if self.kinds and self._rng.random() < self.rate:
                kind = self._rng.choice(self.kinds)
                self.report.record(kind)
                return kind
            return None

    def __call__(self, method: str, path: str,
                 body: bytes) -> tuple[int, bytes]:
        kind = self._decide()
        if kind is None:
            return self.send(method, path, body)
        if kind == "drop_request":
            raise InjectedNetworkFault(
                f"injected fault: {method} {path} request dropped")
        if kind == "drop_response":
            self.send(method, path, body)  # the broker DID see this
            raise InjectedNetworkFault(
                f"injected fault: {method} {path} response dropped")
        if kind == "duplicate":
            self.send(method, path, body)
            return self.send(method, path, body)
        if kind == "delay":
            with self._lock:
                fraction = self._rng.random()
            self.sleep(self.delay_s * fraction)
            return self.send(method, path, body)
        if kind == "error_503":
            return 503, b"injected fault: service unavailable"
        # mangle_response: flip one byte so framing/digest checks fire.
        status, payload = self.send(method, path, body)
        if not payload:
            return status, payload
        with self._lock:
            index = self._rng.randrange(len(payload))
        mangled = bytes([payload[i] ^ 0x20 if i == index else payload[i]
                         for i in range(len(payload))])
        return status, mangled
