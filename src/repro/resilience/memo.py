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
from pathlib import Path

from repro.obs import get_instrumentation
from repro.resilience.framing import frame_line, unframe_line, write_atomic

logger = logging.getLogger(__name__)

__all__ = ["AnalysisMemo", "trace_digest"]


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
                path, extra={"event": "memo.corrupt"})
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
