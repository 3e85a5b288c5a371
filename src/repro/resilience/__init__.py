"""Resilience subsystem: fault-tolerant execution + corruption-tolerant ingestion.

Field measurement is lossy by nature — truncated captures, dropped RRC
lines, crashed runs — so the production pipeline treats partial failure
as the normal case.  This package provides the pieces the three
pipeline layers share:

* :mod:`repro.resilience.errors` — the structured exception taxonomy
  raised by trace ingestion (line numbers + record kinds).
* :mod:`repro.resilience.ingest` — :class:`ParseReport`, the recover-mode
  accounting of what was kept, skipped and why.
* :mod:`repro.resilience.retry` — seeded deterministic retry/backoff for
  campaign runs.
* :mod:`repro.resilience.framing` — the CRC frame, appender, tail
  reader and atomic writer every durable record goes through.
* :mod:`repro.resilience.checkpoint` — append-only JSONL campaign
  checkpointing for interrupt/resume.
* :mod:`repro.resilience.memo` — the content-addressed analysis cache
  (campaign identity + trace digest), so resume and repeated profiling
  skip re-analysis of unchanged traces.
* :mod:`repro.resilience.supervision` — run deadlines, hung/crashed
  worker containment (kill-and-respawn, circuit breaker) and graceful
  SIGTERM/SIGINT shutdown for the campaign engine.
* :mod:`repro.resilience.taskqueue` — the durable on-disk task queue
  that ``repro broker serve`` owns: CRC-framed spool events, one
  crash-proof replay (:func:`replay_line`), lease-based claims with
  fencing tokens, crash-safe multi-worker work stealing.

The fault injectors and the chaos harness that attack these pieces
live with the tests, in ``tests/chaos``.
"""

from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    CheckpointEntry,
    CheckpointLoadReport,
    CheckpointMismatchError,
    RunKey,
)
from repro.resilience.errors import (
    MalformedHeaderError,
    MalformedRecordError,
    OutOfOrderRecordError,
    TraceDecodeError,
    TraceParseError,
    UnknownRecordKindError,
)
from repro.resilience.ingest import ParseReport, QuarantinedLine
from repro.resilience.memo import AnalysisMemo, trace_digest
from repro.resilience.retry import (
    AttemptOutcome,
    RetryPolicy,
    execute_with_retry,
)
from repro.resilience.taskqueue import (
    Claim,
    DurableTaskQueue,
    LeaseState,
    QueueStats,
    TaskQueueError,
    TaskRecord,
    replay_line,
)
from repro.resilience.supervision import (
    CircuitBreaker,
    CircuitBreakerOpen,
    Deadline,
    PoolSupervisor,
    RunTimeoutError,
    ShutdownRequested,
    WorkerCrashError,
    check_deadline,
    current_deadline,
    deadline_scope,
    graceful_shutdown,
    parent_wait_budget,
)

__all__ = [
    "AnalysisMemo",
    "AttemptOutcome",
    "CampaignCheckpoint",
    "CheckpointEntry",
    "CheckpointLoadReport",
    "CheckpointMismatchError",
    "CircuitBreaker",
    "CircuitBreakerOpen",
    "Claim",
    "Deadline",
    "DurableTaskQueue",
    "LeaseState",
    "QueueStats",
    "TaskQueueError",
    "TaskRecord",
    "MalformedHeaderError",
    "MalformedRecordError",
    "OutOfOrderRecordError",
    "ParseReport",
    "PoolSupervisor",
    "QuarantinedLine",
    "RetryPolicy",
    "RunKey",
    "RunTimeoutError",
    "ShutdownRequested",
    "TraceDecodeError",
    "TraceParseError",
    "UnknownRecordKindError",
    "WorkerCrashError",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
    "execute_with_retry",
    "graceful_shutdown",
    "parent_wait_budget",
    "replay_line",
    "trace_digest",
]
