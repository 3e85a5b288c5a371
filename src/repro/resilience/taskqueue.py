"""Durable on-disk task queue with lease-based, crash-safe work claims.

The queue behind ``repro broker serve`` (:mod:`repro.campaign.broker`):
a spool directory that makes *campaign completion a durability
property*.  Every work item, lease and completion is an append-only,
CRC-framed, fsynced event, so the broker, any ``repro worker`` and the
coordinator can be SIGKILLed at any instant without losing or
double-counting a run.

**Spool layout** (one directory per campaign queue)::

    <dir>/events.spool     append-only CRC-framed JSON events
    <dir>/queue.lock       flock serializing mutating appends
    <dir>/workers/<id>.hb  per-worker heartbeat files (atomic replace)

**Event log.**  Every line is one :mod:`repro.resilience.framing`
frame, ``<crc32:8 hex> <json>``.  The first event is a header carrying
the format version and the campaign identity hash — opening a spool
whose identity names a different campaign raises
:class:`~repro.resilience.checkpoint.CheckpointMismatchError`
instead of silently merging two campaigns.  Then, in any order::

    {"ev": "submit",    "seq": n, "key": [...], "payload": "<task>"}
    {"ev": "close",     "total": N}
    {"ev": "claim",     "seq": n, "worker": w, "token": t, "deadline": d}
    {"ev": "heartbeat", "seq": n, "token": t, "deadline": d}
    {"ev": "expire",    "seq": n, "token": t}
    {"ev": "complete",  "seq": n, "token": t, "payload": "<outcome>"}

The task and outcome payloads are text inside their events, so the
spool is the queue's only durable store: a payload and the event that
carries it are one fsynced line.

**Lease state machine** (:class:`LeaseState`) is a pure replay of that
log.  :func:`replay_line` is the one replay: the queue runs it over its
own spool and the coordinator's broker client over the lines the
broker streams it, so both sides decide claims, steals and fences
identically.  The rules that make work stealing crash-safe:

* A *claim* takes the lowest-``seq`` submitted, unfinished, unleased
  task and stamps it with a **fencing token** — ``task.token + 1``,
  strictly monotonic per task — plus a **monotonic-clock deadline**
  (the clock of the process that owns the queue; broker clients send
  lease durations, never deadlines).
* A *heartbeat* extends the deadline iff the token is still current.
* An *expire* requeues a lease whose deadline passed; whoever observes
  the overdue lease first (a claim, or the coordinator's sync) appends
  it.  Replay is idempotent: a second expire for the same token is a
  no-op.
* A re-*claim* of a requeued task by a *different* worker is a
  **steal**; the original holder's token is now stale, so even if that
  worker is merely slow rather than dead, its late ``heartbeat`` /
  ``complete`` events are **fenced off** (ignored on replay) — a run
  is never completed twice.
* A *complete* is recorded at most once per task; duplicates and
  fenced completions are counted (:class:`QueueStats`) but ignored.

**Durability.**  Mutating appends happen under an ``flock`` (claims
are read-modify-append, and two queue instances may share a spool —
a restarted broker beside its predecessor), are flushed and fsynced,
and creating the spool fsyncs the directory.  A writer killed
mid-append leaves a torn tail, which replay never reads as a line; the
next append terminates it and replay skips the CRC-invalid fragment —
the lost event degrades to "never happened", which every event kind
tolerates (a lost claim re-claims, a lost complete re-runs
deterministically).  A CRC-valid event whose fields are not what its
writer puts there is counted in :attr:`QueueStats.invalid` and changes
nothing; a ``submit`` or ``complete`` whose payload is not text is
one.  Two things stop a replay with :class:`TaskQueueError`: a ``seq``
re-used for a different key, and a header naming another format
version than :data:`QUEUE_VERSION` (version 1 spools named payloads by
the digest of a blob beside the spool).

**Memory.**  The pure :class:`LeaseState` keeps each outcome until
its reader takes it (the coordinator's mirror, whose
``BrokerClient.take_completion`` drops it); the disk queue, which
nobody takes outcomes from, drops each one as it replays it.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.obs import get_instrumentation
from repro.resilience.checkpoint import CheckpointMismatchError
from repro.resilience.framing import (
    LineReader,
    append_lines,
    decode_object,
    frame_object,
    load_framed_line,
    write_atomic,
)

logger = logging.getLogger(__name__)

__all__ = [
    "Claim",
    "DurableTaskQueue",
    "LeaseState",
    "QueueStats",
    "TaskRecord",
    "TaskQueueError",
    "WorkerHeartbeat",
    "replay_line",
]

#: The spool format this writer produces and the only one replay reads.
#: Version 2 carries task and outcome payloads inside their events.
QUEUE_VERSION = 2

#: The broker's wire version, advertised in every status snapshot and
#: checked by the client on attach.  Version 3 hands outcomes to the
#: coordinator inside the spool lines ``sync`` streams (no ``outcome``
#: verb).
BROKER_PROTOCOL_VERSION = 3

#: How long past its ttl a worker heartbeat file still counts as live.
_HEARTBEAT_GRACE = 2.0


class TaskQueueError(RuntimeError):
    """The spool is structurally unusable (not: corrupt lines, which
    are skipped) — e.g. a submit re-used a seq for a different key."""


# ----------------------------------------------------------------------
# Pure lease state machine (replay of the event log)
# ----------------------------------------------------------------------


@dataclass
class TaskRecord:
    """One task's replayed state."""

    seq: int
    key: tuple
    payload: str | None = None  # the submit payload (opaque text)
    done: bool = False
    outcome: str | None = None  # the completion payload, until taken
    worker: str | None = None  # current / last lease holder
    token: int = 0  # fencing token of the current / last lease
    deadline: float | None = None  # monotonic deadline of an active lease
    active: bool = False  # a lease is currently held
    requeued_from: str | None = None  # holder of the lease that expired

    def expired(self, now: float) -> bool:
        return self.active and self.deadline is not None \
            and now > self.deadline


@dataclass
class QueueStats:
    """Replay-derived health numbers (feed the ``repro.obs`` gauges)."""

    submitted: int = 0
    completed: int = 0
    expired: int = 0  # leases_expired_total
    stolen: int = 0  # runs_stolen_total
    fenced: int = 0  # stale-token heartbeats/completes ignored
    invalid: int = 0  # structurally invalid events skipped on replay


def _int(value: object) -> int:
    """An integer event field (``bool`` is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _seq(value: object) -> int:
    seq = _int(value)
    if seq < 0:
        raise ValueError(f"negative seq {seq}")
    return seq


def _finite(value: object) -> float:
    """A finite number event field (``float()`` of a huge int raises
    ``OverflowError``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {value!r}")
    return number


def _text(value: object) -> str:
    """A text field (task and outcome payloads are text)."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _run_key(value: object) -> tuple:
    """A run key: a list of JSON scalars other than booleans, so the
    tuple is hashable."""
    if not isinstance(value, list) or not all(
            part is None or isinstance(part, (str, int, float))
            and not isinstance(part, bool) for part in value):
        raise TypeError(f"expected a run key list, got {value!r}")
    return tuple(value)


class LeaseState:
    """In-memory lease state: a pure, deterministic replay of events.

    ``apply`` returns a *disposition* string — ``"header"``,
    ``"submit"``, ``"close"``, ``"claim"``, ``"steal"``,
    ``"heartbeat"``, ``"expire"``, ``"complete"``, ``"fenced"``,
    ``"noop"`` or ``"invalid"`` — so observers (the coordinator's
    counter/breaker routing, the property tests) can react to each
    event exactly once, in log order, without re-deriving it.
    """

    def __init__(self) -> None:
        self.tasks: dict[int, TaskRecord] = {}
        self.identity: str | None = None
        self.version: int = 0
        self.default_lease_s: float | None = None
        self.closed: bool = False
        self.total: int | None = None
        self.stats = QueueStats()

    # -- queries --------------------------------------------------------

    def depth(self) -> int:
        """Tasks not yet completed (pending + leased)."""
        return len(self.tasks) - self.stats.completed

    def active_leases(self, now: float) -> int:
        return sum(1 for task in self.tasks.values()
                   if task.active and not task.expired(now))

    def drained(self) -> bool:
        """Every submitted task of a closed queue is complete."""
        return self.closed and self.total is not None \
            and self.stats.completed >= self.total

    def expired_leases(self, now: float) -> list[tuple[int, int]]:
        """``(seq, token)`` of every overdue active lease."""
        return sorted((task.seq, task.token) for task in self.tasks.values()
                      if task.expired(now))

    # -- replay ---------------------------------------------------------

    def apply(self, event: dict) -> str:
        """Fold one decoded event in; returns its disposition.

        Every field is parsed before anything changes, so an event
        whose fields have the wrong types or values is ``"invalid"``
        (counted) and leaves the state exactly as it was.
        """
        kind = event.get("ev")
        try:
            if kind == "header":
                return self._apply_header(event)
            if kind == "submit":
                return self._apply_submit(event)
            if kind == "close":
                return self._apply_close(event)
            if kind in ("claim", "heartbeat", "expire", "complete"):
                return self._apply_lease_event(kind, event)
        except (KeyError, TypeError, ValueError, OverflowError):
            pass
        self.stats.invalid += 1
        return "invalid"

    def _apply_header(self, event: dict) -> str:
        version = _int(event["version"])
        identity = event.get("identity")
        lease = event.get("lease_s")
        lease_s = None if lease is None else _finite(lease)
        if version != QUEUE_VERSION:
            raise TaskQueueError(
                f"task queue spool format version {version} is not "
                f"version {QUEUE_VERSION}, the only one this repro reads; "
                f"finish that campaign with the repro that wrote it, or "
                f"use a fresh queue directory")
        self.version = version
        self.identity = None if identity is None else str(identity)
        self.default_lease_s = lease_s
        return "header"

    def _apply_submit(self, event: dict) -> str:
        seq = _seq(event["seq"])
        key = _run_key(event["key"])
        payload = _text(event["payload"])
        existing = self.tasks.get(seq)
        if existing is not None:
            if existing.key != key:
                raise TaskQueueError(
                    f"task queue seq {seq} re-submitted with a different "
                    f"key ({existing.key} != {key}); the spool mixes two "
                    f"schedules — use a fresh queue directory")
            return "noop"  # idempotent resubmit (coordinator restart)
        self.tasks[seq] = TaskRecord(seq=seq, key=key, payload=payload)
        self.stats.submitted += 1
        return "submit"

    def _apply_close(self, event: dict) -> str:
        total = _int(event.get("total"))
        if self.closed:
            return "noop"
        self.closed, self.total = True, total
        return "close"

    def _apply_lease_event(self, kind: str, event: dict) -> str:
        seq = _seq(event["seq"])
        token = _int(event["token"])
        outcome = _text(event["payload"]) if kind == "complete" else None
        task = self.tasks.get(seq)
        if task is None:
            self.stats.invalid += 1
            return "invalid"
        if kind == "claim":
            deadline = _finite(event.get("deadline", 0.0))
            # Writers compute token = task.token + 1 under the lock, so
            # a mismatched token on replay is a fenced/duplicated write.
            if task.done or task.active or token != task.token + 1:
                self.stats.fenced += 1
                return "fenced"
            task.token = token
            task.worker = str(event.get("worker", ""))
            task.deadline = deadline
            task.active = True
            stolen_from, task.requeued_from = task.requeued_from, None
            if stolen_from is not None and stolen_from != task.worker:
                self.stats.stolen += 1
                return "steal"
            return "claim"
        if kind == "heartbeat":
            deadline = event.get("deadline")
            deadline = None if deadline is None else _finite(deadline)
            if not task.active or token != task.token:
                self.stats.fenced += 1
                return "fenced"
            if deadline is not None:
                task.deadline = deadline
            return "heartbeat"
        if kind == "expire":
            if not task.active or token != task.token:
                return "noop"  # raced with another observer: idempotent
            task.active = False
            task.requeued_from = task.worker
            self.stats.expired += 1
            return "expire"
        # complete
        if task.done or not task.active or token != task.token:
            self.stats.fenced += 1
            return "fenced"
        task.done = True
        task.active = False
        task.outcome = outcome
        self.stats.completed += 1
        return "complete"


def replay_line(state: LeaseState,
                line: bytes) -> tuple[str, int, str] | None:
    """Fold one spool line into ``state``: the one spool replay.

    :meth:`DurableTaskQueue.catch_up` runs it over the spool on disk
    and the coordinator's broker client over the lines the broker
    streams it, so both replays agree by construction.  Returns
    ``None`` when the line carries no framed JSON object (a torn or
    corrupt line, skipped); otherwise ``(disposition, seq, worker)``
    for observers, where ``seq`` is ``-1`` for events without a valid
    one and ``expire``/``steal`` name the *previous* lease holder (the
    worker whose lease was lost), not the event's own ``worker`` field.
    Only :class:`TaskQueueError` escapes.
    """
    event = load_framed_line(line)
    if event is None:
        return None
    disposition = state.apply(event)
    seq = event.get("seq")
    if isinstance(seq, bool) or not isinstance(seq, int):
        seq = -1
    worker = str(event.get("worker") or "")
    if disposition in ("expire", "steal"):
        task = state.tasks[seq]
        worker = (task.requeued_from if disposition == "expire"
                  else task.worker) or ""
    return disposition, seq, worker


# ----------------------------------------------------------------------
# Disk-backed queue
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerHeartbeat:
    """One decoded ``workers/<id>.hb`` file.

    ``age_s`` can be slightly negative (the worker beat between our
    clock read and the file read); a *large* negative age means the
    stamp predates a monotonic-clock restart and the worker is treated
    as dead.
    """

    worker: str
    pid: int
    mono: float
    ttl: float
    age_s: float
    run_key: tuple | None = None
    token: int | None = None

    @property
    def live(self) -> bool:
        return -self.ttl <= self.age_s <= self.ttl * _HEARTBEAT_GRACE


def _read_heartbeat(path: Path, now: float) -> WorkerHeartbeat | None:
    """Decode one heartbeat file; ``None`` for anything unreadable,
    including any field without the type the broker writes there."""
    try:
        data = decode_object(path.read_bytes()) or {}
        mono = _finite(data["mono"])
        run_key, token = data.get("run_key"), data.get("token")
        return WorkerHeartbeat(
            worker=path.stem, pid=_int(data.get("pid", 0)), mono=mono,
            ttl=_finite(data["ttl"]), age_s=now - mono,
            run_key=None if run_key is None else _run_key(run_key),
            token=None if token is None else _int(token))
    except (OSError, ValueError, KeyError, TypeError, OverflowError):
        return None


@dataclass(frozen=True)
class Claim:
    """One successfully claimed task: identity + fencing credentials."""

    seq: int
    token: int
    worker: str
    key: tuple
    payload: str  # the submit payload (opaque to the queue)


class _FlockHandle:
    """``flock``-based inter-process mutex over ``<dir>/queue.lock``.

    Falls back to an ``O_EXCL`` spin lock where ``fcntl`` is missing
    (non-POSIX); either way, release-on-process-death holds — flock
    drops with the fd, and the spin lock carries the owner pid so a
    stale lock from a dead process is broken.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            import fcntl
            self._fcntl = fcntl
        except ImportError:  # pragma: no cover - non-POSIX
            self._fcntl = None
        self._fd: int | None = None

    def acquire(self) -> None:
        if self._fcntl is not None:
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            self._fcntl.flock(self._fd, self._fcntl.LOCK_EX)
            return
        self._acquire_spin()  # pragma: no cover - non-POSIX

    def release(self) -> None:
        if self._fcntl is not None:
            if self._fd is not None:
                self._fcntl.flock(self._fd, self._fcntl.LOCK_UN)
                os.close(self._fd)
                self._fd = None
            return
        self._release_spin()  # pragma: no cover - non-POSIX

    def _acquire_spin(self) -> None:  # pragma: no cover - non-POSIX
        spin_path = self.path.with_suffix(".spin")
        while True:
            try:
                fd = os.open(spin_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                return
            except FileExistsError:
                try:
                    pid = int(spin_path.read_text() or "0")
                    os.kill(pid, 0)
                except (OSError, ValueError):
                    spin_path.unlink(missing_ok=True)  # stale: owner died
                    continue
                time.sleep(0.01)

    def _release_spin(self) -> None:  # pragma: no cover - non-POSIX
        self.path.with_suffix(".spin").unlink(missing_ok=True)


class DurableTaskQueue:
    """The disk-backed queue: event-log append + incremental replay.

    The broker owns one instance per queue directory and opens it with
    the campaign ``identity`` (verified against the spool header);
    ``repro status`` opens a read-only one beside it.  ``clock`` is the
    owner's monotonic clock: every lease deadline in the spool is on
    it.
    """

    def __init__(self, root: str | Path, identity: str | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 fsync: bool = True,
                 default_lease_s: float | None = None):
        self.root = Path(root)
        self.identity = identity
        self.default_lease_s = default_lease_s  # advertised in the header
        self.clock = clock
        self.fsync = fsync
        self.state = LeaseState()
        self.events_path = self.root / "events.spool"
        self.workers_dir = self.root / "workers"
        self._lock = _FlockHandle(self.root / "queue.lock")
        self._mutex = threading.RLock()  # handler-thread safety
        self._offset = 0  # replay position into events.spool
        self._skipped_lines = 0
        self._dispositions: list[tuple[str, int, str]] = []

    # -- lifecycle ------------------------------------------------------

    def open(self, create: bool = False) -> bool:
        """Attach to the spool; ``create=True`` initialises a new one.

        Returns False when the spool does not exist yet (the broker
        answers "not ready" until the coordinator creates it).  Raises
        ``CheckpointMismatchError`` when the header identity and this
        queue's identity both exist and disagree.
        """
        if not self.events_path.exists():
            if not create:
                return False
            self.root.mkdir(parents=True, exist_ok=True)
            self.workers_dir.mkdir(exist_ok=True)
            with self._locked():
                if not self.events_path.exists():
                    self._append_events([{
                        "ev": "header", "version": QUEUE_VERSION,
                        "identity": self.identity,
                        "lease_s": self.default_lease_s}])
        if create:
            # Coordinator-side open: clear heartbeat files left by a
            # previous campaign against a reused queue directory, so
            # liveness views never show long-dead workers.
            self.prune_stale_worker_heartbeats()
        self.catch_up()
        self.check_identity(self.identity)
        return True

    def check_identity(self, identity: str | None) -> None:
        """Raise ``CheckpointMismatchError`` when ``identity`` and the
        spool header's both exist and disagree."""
        spool = self.state.identity
        if identity is not None and spool is not None and identity != spool:
            raise CheckpointMismatchError(
                f"task queue {self.root} belongs to a different campaign "
                f"(spool identity {spool}, this campaign {identity}); "
                f"point the broker at a fresh --queue-dir or rerun with "
                f"the original seed/config/operators")

    # -- coordinator API ------------------------------------------------

    def submit_at(self, seq: int, key: tuple, payload: str) -> int:
        """Durably enqueue one task at an explicit ``seq``.

        The broker assigns seqs from its replayed state (``max + 1``),
        so a restarted broker keeps numbering where the spool left
        off.  A re-submit of an existing ``(seq, key)`` is a no-op; a
        key mismatch raises :class:`TaskQueueError`.
        """
        with self._mutex:
            self.catch_up()
            existing = self.state.tasks.get(seq)
            if existing is not None:
                if existing.key != tuple(key):
                    raise TaskQueueError(
                        f"task queue seq {seq} already holds key "
                        f"{existing.key}, not {tuple(key)}; the spool mixes "
                        f"two schedules — use a fresh queue directory")
                return seq
            with self._locked():
                self.catch_up()
                if seq not in self.state.tasks:
                    self._append_events([{"ev": "submit", "seq": seq,
                                          "key": list(key),
                                          "payload": payload}])
            return seq

    def close(self) -> None:
        """Seal the queue: no more submits; workers may drain and exit."""
        with self._mutex:
            self.catch_up()
            if self.state.closed:
                return
            with self._locked():
                self.catch_up()
                if not self.state.closed:
                    self._append_events([{"ev": "close",
                                          "total": len(self.state.tasks)}])

    def expire_overdue(self) -> None:
        """Append expire events for every overdue lease.

        :meth:`claim` does the same on its way to a claim, so whichever
        verb looks first requeues the work.
        """
        with self._mutex:
            self.catch_up()
            if not self.state.expired_leases(self.clock()):
                return
            with self._locked():
                self.catch_up()
                events = [{"ev": "expire", "seq": seq, "token": token}
                          for seq, token
                          in self.state.expired_leases(self.clock())]
                if events:
                    self._append_events(events)

    def drain_dispositions(self) -> list[tuple[str, int, str]]:
        """New ``(disposition, seq, worker)`` tuples since the last call.

        Each replayed event is reported exactly once per instance, in
        log order — the broker's telemetry routing and ``repro
        status``'s event synthesis consume this.
        """
        with self._mutex:
            self.catch_up()
            out, self._dispositions = self._dispositions, []
            return out

    # -- worker API -----------------------------------------------------

    def claim(self, worker: str, lease_s: float) -> Claim | None:
        """Claim the lowest-seq available task under a ``lease_s`` lease.

        Expired leases encountered along the way are requeued first, so
        a claim by a different worker is exactly a steal.  Returns None
        when nothing is claimable right now.
        """
        with self._mutex:
            self.catch_up()
            if not self.state.expired_leases(self.clock()) and all(
                    task.done or task.active
                    for task in self.state.tasks.values()):
                return None  # cheap lock-free fast path
            with self._locked():
                self.catch_up()
                now = self.clock()
                overdue = self.state.expired_leases(now)
                events = [{"ev": "expire", "seq": seq, "token": token}
                          for seq, token in overdue]
                overdue_seqs = {seq for seq, _ in overdue}
                # Claim target: lowest seq that is unfinished and either
                # unleased or being requeued by the expiries above.  The
                # expire events precede the claim in the log, so replay
                # (everyone's, including ours below) sees a consistent
                # requeue-then-claim sequence.
                seq = None
                for cand, task in self.state.tasks.items():
                    if task.done or (task.active
                                     and cand not in overdue_seqs):
                        continue
                    if seq is None or cand < seq:
                        seq = cand
                if seq is None:
                    if events:
                        self._append_events(events)
                    return None
                task = self.state.tasks[seq]
                token = task.token + 1  # expire never advances the token
                events.append({"ev": "claim", "seq": seq, "worker": worker,
                               "token": token, "deadline": now + lease_s})
                self._append_events(events)
                return Claim(seq=seq, token=token, worker=worker,
                             key=task.key, payload=task.payload)

    def heartbeat(self, claim: Claim, lease_s: float) -> bool:
        """Extend a held lease; False when the lease was fenced off."""
        with self._mutex:
            self.catch_up()
            task = self.state.tasks.get(claim.seq)
            if task is None or not task.active or task.token != claim.token:
                return False
            with self._locked():
                self.catch_up()
                task = self.state.tasks.get(claim.seq)
                if task is None or not task.active \
                        or task.token != claim.token:
                    return False
                self._append_events([{"ev": "heartbeat", "seq": claim.seq,
                                      "token": claim.token,
                                      "deadline": self.clock() + lease_s}])
            return True

    def complete(self, claim: Claim, payload: str) -> bool:
        """Durably record a completion; False when fenced (discarded).

        Fencing is the no-double-completion guarantee: if this worker's
        lease expired and the run was stolen, its token is stale and
        the completion is rejected — the thief's completion (of the
        identical deterministic run) is the one that counts.
        """
        with self._mutex:
            with self._locked():
                self.catch_up()
                task = self.state.tasks.get(claim.seq)
                if task is None or task.done or not task.active \
                        or task.token != claim.token:
                    return False
                self._append_events([{"ev": "complete", "seq": claim.seq,
                                      "token": claim.token,
                                      "payload": payload}])
            return True

    # -- worker liveness ------------------------------------------------

    def write_worker_heartbeat(self, worker: str, ttl_s: float, *,
                               pid: int, run_key: tuple | None = None,
                               token: int | None = None) -> None:
        """Refresh a worker's liveness file (atomic replace).

        ``pid`` is the worker's own process id (the broker writes these
        files on its workers' behalf).  ``run_key``/``token`` name the
        claim the worker is currently executing (``None`` between
        claims), so ``repro status`` can show not just *that* a worker
        is alive but *what* it holds and under which lease generation.
        """
        record: dict = {"pid": pid, "mono": self.clock(), "ttl": ttl_s}
        if run_key is not None:
            record["run_key"] = list(run_key)
        if token is not None:
            record["token"] = token
        write_atomic(self.workers_dir / f"{worker}.hb",
                     json.dumps(record).encode("utf-8"))

    def worker_heartbeats(self) -> list["WorkerHeartbeat"]:
        """Decode every readable heartbeat file (live and stale)."""
        if not self.workers_dir.exists():
            return []
        now = self.clock()
        beats = []
        for path in sorted(self.workers_dir.glob("*.hb")):
            beat = _read_heartbeat(path, now)
            if beat is not None:
                beats.append(beat)
        return beats

    def live_workers(self) -> list[str]:
        """Workers whose heartbeat file is within its ttl (+grace)."""
        return [beat.worker for beat in self.worker_heartbeats()
                if beat.live]

    def prune_stale_worker_heartbeats(self) -> list[str]:
        """Delete heartbeat files from long-dead worker incarnations.

        Called on queue open so ``repro status`` against a reused queue
        directory never lists last week's workers.  A file is pruned
        when its heartbeat is stale (past ttl + grace) or *implausible*
        — its monotonic stamp lies in the future, which is what a
        pre-reboot heartbeat looks like after ``CLOCK_MONOTONIC``
        restarts from zero.  Best-effort: racing with the worker's own
        atomic replace is harmless (it rewrites the file on its next
        beat).
        """
        if not self.workers_dir.exists():
            return []
        now = self.clock()
        pruned = []
        for path in sorted(self.workers_dir.glob("*.hb")):
            beat = _read_heartbeat(path, now)
            if beat is not None and beat.live:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing unlink
                continue
            pruned.append(path.stem)
        if pruned:
            get_instrumentation().events.emit(
                "queue.heartbeats_pruned", severity="debug",
                workers=pruned)
        return pruned

    # -- replay / append internals --------------------------------------

    def _locked(self) -> "_LockScope":
        return _LockScope(self._lock)

    def catch_up(self) -> None:
        """Replay any events appended since the last catch-up.

        Only whole, newline-terminated lines are consumed; a torn tail
        (a writer died mid-append) is left unread until a later append
        terminates it.  Lines without a framed JSON object are skipped
        and counted, never fatal.  Outcome payloads are dropped as
        they are replayed: nobody takes them from the disk queue.
        """
        with self._mutex:
            lines = LineReader(self.events_path, self._offset)
            for line in lines:
                if not line.strip():
                    self._offset = lines.offset
                    continue
                # Applied before the cursor passes it, so a line that
                # stops the replay stops every later catch-up too.
                observed = replay_line(self.state, line)
                line_offset, self._offset = self._offset, lines.offset
                if observed is not None:
                    if observed[0] == "complete":
                        self.state.tasks[observed[1]].outcome = None
                    self._dispositions.append(observed)
                    continue
                self._skipped_lines += 1
                get_instrumentation().events.emit(
                    "queue.spool_corrupt_line", severity="warning",
                    queue=str(self.root), offset=line_offset)
                logger.warning("task queue %s: skipped corrupt spool "
                               "line at byte %d", self.root, line_offset,
                               extra={"event": "queue.spool_corrupt_line"})

    def _append_events(self, events: list[dict]) -> None:
        """Append framed events; caller must hold the flock.

        Our own writes are folded into local state by replaying them
        through the normal :meth:`catch_up` path afterwards — we hold
        the lock, so what we read back is exactly what we wrote (plus,
        harmlessly, anything appended before we acquired it).
        """
        append_lines(self.events_path,
                     [frame_object(event) for event in events],
                     fsync=self.fsync)
        self.catch_up()


class _LockScope:
    def __init__(self, lock: _FlockHandle):
        self._lock = lock

    def __enter__(self) -> "_LockScope":
        self._lock.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()
