"""Append-only campaign checkpointing, durable and verifiable.

Every completed (or definitively failed) run is appended to a JSONL
checkpoint file as soon as it finishes, so an interrupted campaign
resumes from the last completed run instead of starting over.  Success
entries embed the run's serialized signaling trace: on resume the trace
is re-parsed and re-analysed — cheap — instead of re-simulated
(re-measured) — expensive — which mirrors how a field campaign would
reload captures rather than redrive an area.

**v1 on-disk format** (the writer's native format)::

    <crc32:8 hex> {"version": 1, "identity": "<campaign hash>"}
    <crc32:8 hex> {"key": [...], "status": "ok", "trace": "..."}
    <crc32:8 hex> {"key": [...], "status": "failed", ...}

* The *header* line carries a campaign identity hash (seed + the
  schedule-defining config + operators); resuming against a checkpoint
  whose identity does not match raises :class:`CheckpointMismatchError`
  instead of silently merging two different campaigns.
* Every line is prefixed with the CRC32 of its JSON payload, so
  *mid-file* corruption (a flipped bit, a mangled range) is detected
  and the affected entry quarantined — not just the truncated tail a
  killed writer leaves.
* Appends (:func:`~repro.resilience.framing.append_lines`) flush and
  fsync by default (opt out with ``fsync=False`` / ``--no-fsync``), so
  an acknowledged run survives power loss; creating the file fsyncs its
  directory too.  A torn tail from a coordinator killed mid-append is
  terminated before the next entry, so it stays one skipped line and
  the first run recorded on resume is not lost with it.

The reader is corruption-tolerant and backward compatible: headerless
bare-JSON *v0* files still load (no CRC/identity verification), corrupt
lines — a bad CRC, an undecodable payload, or a CRC-valid payload whose
fields do not have the writer's types — and a torn final line are
skipped, counted into the ``checkpoint_lines_skipped_total`` metric and
reported in a single warning naming the line numbers.  Later entries
for the same key win, so re-running a previously failed run overwrites
its quarantine entry.  An ``ok`` entry whose ``trace`` is ``null``
(older writers recorded such trace-less successes; this one never
does) still loads, and resume re-executes its run: there is nothing
to restore the analysis from.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import get_instrumentation
from repro.resilience.framing import (
    LineReader,
    append_lines,
    decode_object,
    frame_object,
    unframe_line,
)

logger = logging.getLogger(__name__)

#: (operator, area, location, run_index) — the identity of one run.
RunKey = tuple[str, str, str, int]

#: The checkpoint format this writer produces.
CHECKPOINT_VERSION = 1

#: How many corrupt line numbers the single load() warning names.
_WARN_LINE_LIMIT = 20


class CheckpointMismatchError(ValueError):
    """Resume attempted against a checkpoint from a different campaign."""


@dataclass(frozen=True)
class CheckpointEntry:
    """One checkpointed run: its key, outcome, and payload."""

    key: RunKey
    status: str  # "ok" | "failed"
    trace_jsonl: str | None = None
    error: str | None = None
    attempts: int = 1

    @property
    def succeeded(self) -> bool:
        return self.status == "ok"


@dataclass
class CheckpointLoadReport:
    """What one :meth:`CampaignCheckpoint.load_report` pass found."""

    entries: dict[RunKey, CheckpointEntry] = field(default_factory=dict)
    version: int = 0  # 0 = legacy headerless file
    identity: str | None = None
    lines_total: int = 0
    skipped_lines: list[int] = field(default_factory=list)  # 1-based

    @property
    def lines_skipped(self) -> int:
        return len(self.skipped_lines)


class CampaignCheckpoint:
    """Append-only, CRC-framed JSONL record of per-run campaign outcomes.

    ``identity`` is the campaign identity hash written into the v1
    header (``None`` writes headerless CRC-framed lines and skips the
    resume identity check — the direct-manipulation mode tests use).
    ``fsync=False`` drops the per-append fsync for callers that
    prefer throughput over power-loss durability.
    """

    def __init__(self, path: str | Path, identity: str | None = None,
                 fsync: bool = True):
        self.path = Path(path)
        self.identity = identity
        self.fsync = fsync

    def record_success(self, key: RunKey, trace_jsonl: str) -> None:
        """Record a completed run with its serialized trace."""
        self._append({"key": list(key), "status": "ok",
                      "trace": trace_jsonl})

    def record_failure(self, key: RunKey, error: str, attempts: int) -> None:
        self._append({"key": list(key), "status": "failed",
                      "error": error, "attempts": attempts})

    def _append(self, entry: dict) -> None:
        header = None if self.identity is None else frame_object(
            {"version": CHECKPOINT_VERSION, "identity": self.identity})
        append_lines(self.path, [frame_object(entry)], fsync=self.fsync,
                     header=header)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self) -> dict[RunKey, CheckpointEntry]:
        """Read back all valid entries (see :meth:`load_report`)."""
        return self.load_report().entries

    def load_report(self) -> CheckpointLoadReport:
        """Stream the checkpoint back, verifying CRCs and identity.

        The file is streamed line by line rather than slurped: success
        entries embed full serialized traces, so a campaign-scale
        checkpoint can reach hundreds of MB and must never be held in
        memory twice (once as text, once decoded).

        Corrupt lines (bad CRC, undecodable payload, ill-typed fields)
        and a torn final line are skipped and reported — once, with
        line numbers — plus counted into the
        ``checkpoint_lines_skipped_total`` metric; the affected runs
        simply re-execute on resume.  Raises
        :class:`CheckpointMismatchError` when both this checkpoint and
        the file header carry an identity and they disagree.
        """
        report = CheckpointLoadReport()
        lines = LineReader(self.path)
        for number, line in enumerate(lines, start=1):
            report.lines_total = number
            stripped = line.strip()
            if not stripped:
                continue
            payload, crc_ok = unframe_line(stripped)
            data = None if crc_ok is False else decode_object(payload)
            if data is None:
                report.skipped_lines.append(number)
                continue
            if number == 1:
                header = _decode_header(data)
                if header is not None:
                    report.version, report.identity = header
                    self._check_identity(report.identity)
                    continue
            entry = _decode_entry(data)
            if entry is None:
                report.skipped_lines.append(number)
                continue
            report.entries[entry.key] = entry
        if lines.torn:
            report.lines_total += 1
            report.skipped_lines.append(report.lines_total)
        self._report_skipped(report)
        return report

    def _check_identity(self, file_identity: str | None) -> None:
        if self.identity is None or file_identity is None:
            return
        if file_identity != self.identity:
            raise CheckpointMismatchError(
                f"checkpoint {self.path} belongs to a different campaign "
                f"(checkpoint identity {file_identity}, this campaign "
                f"{self.identity}); refusing to merge — use a fresh "
                f"checkpoint path or rerun with the original "
                f"seed/config/operators")

    def _report_skipped(self, report: CheckpointLoadReport) -> None:
        if not report.skipped_lines:
            return
        obs = get_instrumentation()
        obs.registry.counter(
            "checkpoint_lines_skipped_total").inc(report.lines_skipped)
        obs.events.emit("checkpoint.lines_skipped", severity="warning",
                        path=str(self.path), skipped=report.lines_skipped)
        shown = ", ".join(str(number)
                          for number in report.skipped_lines[:_WARN_LINE_LIMIT])
        if report.lines_skipped > _WARN_LINE_LIMIT:
            shown += f", … ({report.lines_skipped - _WARN_LINE_LIMIT} more)"
        logger.warning(
            "checkpoint %s: skipped %d corrupt line(s) (line %s); "
            "the affected runs will re-execute on resume",
            self.path, report.lines_skipped, shown,
            extra={"event": "checkpoint.lines_skipped"})


def _is_int(value: object) -> bool:
    """Whether a decoded field is an integer (``bool`` is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_header(data: dict) -> tuple[int, str | None] | None:
    """Decode a v1 header; ``None`` when ``data`` is not one."""
    version, identity = data.get("version"), data.get("identity")
    if not _is_int(version) \
            or not (identity is None or isinstance(identity, str)):
        return None
    return version, identity


def _decode_entry(data: dict) -> CheckpointEntry | None:
    """Decode one entry; ``None`` unless every field has the type the
    writer gives it."""
    key = data.get("key")
    if not (isinstance(key, list) and len(key) == 4
            and all(isinstance(part, str) for part in key[:3])
            and _is_int(key[3])):
        return None
    key = tuple(key)
    status = data.get("status")
    if status == "ok":
        trace = data.get("trace")
        if "trace" in data and (trace is None or isinstance(trace, str)):
            return CheckpointEntry(key=key, status=status, trace_jsonl=trace)
    elif status == "failed":
        error, attempts = data.get("error", ""), data.get("attempts", 1)
        if isinstance(error, str) and _is_int(attempts):
            return CheckpointEntry(key=key, status=status, error=error,
                                   attempts=attempts)
    return None
