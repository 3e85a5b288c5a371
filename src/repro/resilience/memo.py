"""Content-addressed analysis result cache.

Re-analysis is the dominant cost of ``repro campaign --resume`` and of
repeated ``repro profile``/figure runs: the checkpointed traces are
parsed and pushed through ``analyze_trace`` again even though nothing
about them changed.  :class:`AnalysisMemo` keys a pickled
:class:`~repro.core.pipeline.RunAnalysis` by the SHA-256 digest of the
trace's canonical JSONL serialisation — the exact text the v1
checkpoint format already stores per run — namespaced by the campaign
identity hash, so a warm cache lets resume and re-profile skip
re-analysis of unchanged traces entirely.

The cache is strictly best-effort and self-verifying:

* entries are written atomically, so a killed writer never leaves a
  partial entry behind;
* every entry is one :mod:`repro.resilience.framing` frame around its
  pickle, ``<crc32:8 hex> <pickle>``; a corrupt entry (bit rot,
  truncation, a foreign file or an older ``RMEMO1`` entry, a pickle of
  anything but a ``RunAnalysis``) is discarded with a warning and the
  analysis recomputed — never a crash;
* hits, misses and corrupt entries are counted into the ambient
  instrumentation (``analysis_memo_hits_total`` /
  ``analysis_memo_misses_total`` / ``analysis_memo_corrupt_total``), so
  ``repro profile`` can report cache effectiveness and CI can gate on
  it.
"""

from __future__ import annotations

import hashlib
import logging
import pickle
import re
from pathlib import Path

from repro.obs import get_instrumentation
from repro.resilience.framing import frame_line, unframe_line, write_atomic

logger = logging.getLogger(__name__)

__all__ = ["AnalysisMemo", "ArtifactStore", "sha256_digest", "trace_digest"]

#: The names an :class:`ArtifactStore` holds: lowercase SHA-256 hex.
_SHA256_HEX = re.compile("[0-9a-f]{64}")


def sha256_digest(data: bytes) -> str:
    """Content address of an arbitrary blob: its SHA-256 hex digest."""
    return hashlib.sha256(data).hexdigest()


def trace_digest(trace_jsonl: str) -> str:
    """Content address of one trace: SHA-256 over its canonical JSONL.

    ``SignalingTrace.to_jsonl`` is the canonical serialisation — it is
    what checkpoints embed, so on resume the digest comes straight from
    the checkpoint entry without re-parsing the trace.
    """
    return hashlib.sha256(trace_jsonl.encode("utf-8")).hexdigest()


class AnalysisMemo:
    """A directory of content-addressed pickled analysis results.

    ``identity`` namespaces entries by campaign (the
    :meth:`~repro.campaign.runner.CampaignRunner.campaign_identity`
    hash); ``None`` uses a shared namespace (the ``repro analyze``
    single-trace path).  Same layout either way::

        <directory>/<identity or '_'>/<sha256 digest>.pkl
    """

    def __init__(self, directory: str | Path, identity: str | None = None):
        self.identity = identity
        self.directory = Path(directory) / (identity if identity else "_")
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.pkl"

    def get(self, digest: str):
        """The cached analysis for ``digest``, or ``None`` (miss).

        A corrupt entry counts as a miss: it is unlinked, warned about
        once and counted into ``analysis_memo_corrupt_total``; the
        caller recomputes and overwrites it.
        """
        obs = get_instrumentation()
        path = self._path(digest)
        try:
            blob = path.read_bytes()
        except OSError:
            obs.registry.counter("analysis_memo_misses_total").inc()
            return None
        analysis = _decode(blob)
        if analysis is None:
            obs.registry.counter("analysis_memo_misses_total").inc()
            obs.registry.counter("analysis_memo_corrupt_total").inc()
            obs.events.emit("memo.corrupt", severity="warning",
                            path=str(path))
            logger.warning(
                "memo cache entry %s is corrupt; recomputing the analysis",
                path)
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
            return None
        obs.registry.counter("analysis_memo_hits_total").inc()
        return analysis

    def put(self, digest: str, analysis) -> None:
        """Store ``analysis`` under ``digest`` (atomic, best-effort).

        A cache write failure (full disk, permissions) is logged at
        debug level and otherwise ignored: the memo is an accelerator,
        not a store of record.
        """
        payload = pickle.dumps(analysis, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._path(digest)
        try:
            write_atomic(path, frame_line(payload))
        except OSError as error:
            logger.debug("memo cache write %s failed: %s", path, error)


class ArtifactStore:
    """A directory of content-addressed raw blobs, keyed by SHA-256.

    The campaign broker keeps task and outcome payloads here, and its
    spool events name them by digest: the payloads themselves travel
    inside the framed ``submit``/``claim``/``complete``/``outcome``
    verbs.  Blobs are written atomically, and with ``fsync`` (the
    broker's setting) the blob and the directory entries its write
    created are synced before :meth:`put` returns, so the spool event
    appended next never names a blob a power cut can take.  Every read
    is re-verified against its own digest (a blob that does not hash
    to its name is treated as absent and unlinked), so a half-written
    or bit-rotted blob can never be served.  A name that is not a
    SHA-256 hex digest is absent, so no request field can address a
    path outside the store.

    Layout: ``<directory>/<digest[:2]>/<digest>`` (fan-out keeps any
    one directory small at campaign scale).
    """

    def __init__(self, directory: str | Path, fsync: bool = False):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync

    def _path(self, digest: str) -> Path:
        return self.directory / digest[:2] / digest

    def get(self, digest: str) -> bytes | None:
        """The blob for ``digest``, or ``None`` (absent or corrupt)."""
        if not _SHA256_HEX.fullmatch(digest):
            return None
        path = self._path(digest)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        if sha256_digest(data) != digest:
            logger.warning("artifact %s does not hash to its name; "
                           "discarding the corrupt blob", path)
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
            return None
        return data

    def put(self, data: bytes) -> tuple[str, bool]:
        """Store ``data`` under its digest; idempotent.

        Returns the digest and whether this call wrote the blob
        (``False``: the store already held it).
        """
        digest = sha256_digest(data)
        path = self._path(digest)
        if path.exists():
            return digest, False
        write_atomic(path, data, fsync=self.fsync)
        return digest, True

    def count(self) -> int:
        """How many blobs the store currently holds."""
        return sum(1 for child in self.directory.glob("??/*")
                   if child.is_file() and ".tmp" not in child.name)


def _decode(blob: bytes):
    """Verify and unpickle one entry; ``None`` on any corruption."""
    # Late: repro.core imports the trace parser, which imports this
    # package.
    from repro.core.pipeline import RunAnalysis

    payload, crc_ok = unframe_line(blob)
    if not crc_ok:
        return None
    try:
        analysis = pickle.loads(payload)
    except Exception:  # noqa: BLE001 - any unpickling failure is corruption
        return None
    return analysis if isinstance(analysis, RunAnalysis) else None
