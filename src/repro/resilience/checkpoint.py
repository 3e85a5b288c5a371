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
* Appends are ``flush`` + ``os.fsync`` by default (opt out with
  ``fsync=False`` / ``--no-fsync``), so an acknowledged run survives
  power loss, not merely process death.  Creating the file also fsyncs
  the parent *directory* once: without that, a freshly created
  checkpoint can vanish entirely on power loss even though every line
  in it was fsynced (the directory entry itself was still volatile).

The CRC line framing (:func:`frame_line` / :func:`unframe_line` /
:func:`load_framed_line`) and the directory barrier
(:func:`fsync_directory`) are shared with the durable task-queue spool
(:mod:`repro.resilience.taskqueue`), which persists campaign work
items with the same durability contract.

The reader is corruption-tolerant and backward compatible: headerless
bare-JSON *v0* files still load (no CRC/identity verification), corrupt
lines are skipped, counted into the ``checkpoint_lines_skipped_total``
metric and reported in a single warning naming the line numbers.  Later
entries for the same key win, so re-running a previously failed run
overwrites its quarantine entry.
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import get_instrumentation

logger = logging.getLogger(__name__)

#: (operator, area, location, run_index) — the identity of one run.
RunKey = tuple[str, str, str, int]

#: The checkpoint format this writer produces.
CHECKPOINT_VERSION = 1

#: How many corrupt line numbers the single load() warning names.
_WARN_LINE_LIMIT = 20

#: ``<8 hex chars><space>`` CRC frame prefix length.
_FRAME_PREFIX = 9


class CheckpointMismatchError(ValueError):
    """Resume attempted against a checkpoint from a different campaign."""


def fsync_directory(path: str | Path) -> None:
    """One-shot fsync of a directory, so a new file's entry is durable.

    ``os.fsync`` on a file makes its *contents* durable; the directory
    entry pointing at a freshly created file needs its own fsync or the
    whole file can be gone after power loss.  Best-effort: platforms
    (or filesystems) that refuse to open/fsync directories simply skip
    the barrier rather than fail the append.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - platform specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform specific
        pass
    finally:
        os.close(fd)


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
    ``fsync=False`` drops the per-append ``os.fsync`` for callers that
    prefer throughput over power-loss durability.
    """

    def __init__(self, path: str | Path, identity: str | None = None,
                 fsync: bool = True):
        self.path = Path(path)
        self.identity = identity
        self.fsync = fsync

    def record_success(self, key: RunKey, trace_jsonl: str | None) -> None:
        """Record a completed run.

        ``trace_jsonl=None`` records a *trace-less* success (a custom
        ``run_fn`` dropped the trace): resume then knows the run
        completed but deliberately re-executes it, since there is
        nothing to restore the analysis from.
        """
        self._append({"key": list(key), "status": "ok",
                      "trace": trace_jsonl})

    def record_failure(self, key: RunKey, error: str, attempts: int) -> None:
        self._append({"key": list(key), "status": "failed",
                      "error": error, "attempts": attempts})

    def _append(self, entry: dict) -> None:
        created = not self.path.exists()
        with self.path.open("a", encoding="utf-8") as handle:
            if handle.tell() == 0 and self.identity is not None:
                header = json.dumps({"version": CHECKPOINT_VERSION,
                                     "identity": self.identity})
                handle.write(frame_line(header) + "\n")
            handle.write(frame_line(json.dumps(entry)) + "\n")
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        if created and self.fsync:
            fsync_directory(self.path.parent)

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

        Corrupt lines (bad CRC, undecodable payload) are skipped and
        reported — once, with line numbers — plus counted into the
        ``checkpoint_lines_skipped_total`` metric; the affected runs
        simply re-execute on resume.  Raises
        :class:`CheckpointMismatchError` when both this checkpoint and
        the file header carry an identity and they disagree.
        """
        report = CheckpointLoadReport()
        if not self.path.exists():
            return report
        # errors="replace": a bit flip can make a byte invalid UTF-8,
        # and the loader must skip that line, not raise mid-stream.
        # The replacement character changes the payload, so the CRC
        # check catches it like any other corruption.
        with self.path.open("r", encoding="utf-8",
                            errors="replace") as handle:
            for number, line in enumerate(handle, start=1):
                report.lines_total = number
                stripped = line.strip()
                if not stripped:
                    continue
                payload, crc_ok = unframe_line(stripped)
                if crc_ok is False:
                    report.skipped_lines.append(number)
                    continue
                if number == 1:
                    header = _decode_header(payload)
                    if header is not None:
                        report.version, report.identity = header
                        self._check_identity(report.identity)
                        continue
                entry = _decode_entry(payload)
                if entry is None:
                    report.skipped_lines.append(number)
                    continue
                report.entries[entry.key] = entry
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
            self.path, report.lines_skipped, shown)


def frame_line(payload: str) -> str:
    """``<crc32 hex8> <payload>`` — the v1 line frame."""
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}"


def unframe_line(stripped: str) -> tuple[str, bool | None]:
    """Split a line into payload + CRC verdict.

    Returns ``(payload, True)`` for a framed line whose CRC matches,
    ``(payload, False)`` for a framed line whose CRC does not, and
    ``(line, None)`` for an unframed (legacy v0) line, which gets no
    integrity verification.
    """
    if len(stripped) > _FRAME_PREFIX and stripped[_FRAME_PREFIX - 1] == " ":
        prefix = stripped[:_FRAME_PREFIX - 1]
        if len(prefix) == 8 and all(c in "0123456789abcdef" for c in prefix):
            payload = stripped[_FRAME_PREFIX:]
            crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
            return payload, crc == int(prefix, 16)
    return stripped, None


def load_framed_line(line: str) -> dict | None:
    """The JSON object one framed line carries, or ``None``.

    ``None`` unless the CRC matches and the payload decodes to a JSON
    object: a CRC-valid payload that is not JSON, nests past the
    recursion limit or holds an integer past the digit limit is as
    undecodable as a torn one.  Broker wire frames and task-queue spool
    lines both decode here.
    """
    payload, crc_ok = unframe_line(line.strip())
    if crc_ok is not True:
        return None
    try:
        value = json.loads(payload)
    except (ValueError, RecursionError):
        return None
    return value if isinstance(value, dict) else None


def _decode_header(payload: str) -> tuple[int, str | None] | None:
    """Decode a v1 header line; ``None`` when it is not a header."""
    try:
        data = json.loads(payload)
        if not isinstance(data, dict) or "version" not in data:
            return None
        identity = data.get("identity")
        return int(data["version"]), None if identity is None else str(identity)
    except (json.JSONDecodeError, TypeError, ValueError):
        return None


def _decode_entry(payload: str) -> CheckpointEntry | None:
    try:
        data = json.loads(payload)
        raw_key = data["key"]
        key = (str(raw_key[0]), str(raw_key[1]), str(raw_key[2]),
               int(raw_key[3]))
        status = str(data["status"])
        if status == "ok":
            trace = data["trace"]
            return CheckpointEntry(key=key, status=status,
                                   trace_jsonl=(None if trace is None
                                                else str(trace)))
        if status == "failed":
            return CheckpointEntry(key=key, status=status,
                                   error=str(data.get("error", "")),
                                   attempts=int(data.get("attempts", 1)))
    except (json.JSONDecodeError, KeyError, IndexError, TypeError, ValueError):
        return None
    return None
