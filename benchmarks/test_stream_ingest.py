"""Perf gates for the streaming analysis plane (not a paper figure).

The ISSUE's acceptance floor: single-core live-mode incremental ingest
must sustain >= 10k records/s/stream.  Timed here on a loop-heavy
synthetic stream (every record is a state change — the worst realistic
case, since dedup elements only appear on cell-set changes), plus a
bookkeeping comparison against batch ``analyze_trace`` re-run per
chunk, which is what a live verdict would cost without the incremental
plane.  Timings are printed; repo-level throughput numbers live in the
perfbench ledger (``BENCH_perfbench.json``).
"""

from __future__ import annotations

import time

import pytest

from repro.cells.cell import CellIdentity
from repro.core.incremental import IncrementalAnalyzer
from repro.core.pipeline import analyze_trace
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.records import RrcReleaseRecord, RrcSetupCompleteRecord
from benchmarks.conftest import print_header

pytestmark = pytest.mark.perf

LOOP_CELL = CellIdentity(500, 521310)

#: The acceptance floor (records per second, single stream, one core).
MIN_RECORDS_PER_S = 10_000


def _loop_stream(n_records: int) -> SignalingTrace:
    """Alternating setup/release: every record changes the cell set."""
    trace = SignalingTrace(metadata=TraceMetadata(operator="SYNTH",
                                                  area="BENCH",
                                                  location="STREAM-P1"))
    t = 0.0
    for index in range(n_records):
        if index % 2 == 0:
            trace.append(RrcSetupCompleteRecord(time_s=t, cell=LOOP_CELL))
        else:
            trace.append(RrcReleaseRecord(time_s=t))
        t += 0.5
    return trace


def test_live_ingest_sustains_10k_records_per_second():
    trace = _loop_stream(50_000)
    records = list(trace.records)

    best = float("inf")
    for _ in range(3):
        analyzer = IncrementalAnalyzer(horizon=4096)
        start = time.perf_counter()
        for record in records:
            analyzer.feed(record)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        verdict = analyzer.finalize()
    rate = len(records) / best

    # Sanity: the stream really loops and the verdict matches batch.
    assert verdict.detection == analyze_trace(trace).detection
    assert verdict.detection.is_loop

    print_header("Stream ingest — live mode, worst-case state churn")
    print(f"{len(records)} records in {best * 1e3:.1f} ms "
          f"-> {rate / 1e3:.1f}k records/s")
    assert rate >= MIN_RECORDS_PER_S, \
        f"live ingest {rate:.0f} records/s < {MIN_RECORDS_PER_S}"


def test_incremental_verdict_beats_batch_reanalysis():
    """A live verdict every 500 records: incremental ingest vs re-running
    batch ``analyze_trace`` on the prefix (the naive alternative)."""
    trace = _loop_stream(5_000)
    records = list(trace.records)
    chunk = 500

    start = time.perf_counter()
    analyzer = IncrementalAnalyzer(horizon=4096)
    incremental_verdicts = []
    for index, record in enumerate(records, start=1):
        analyzer.feed(record)
        if index % chunk == 0:
            incremental_verdicts.append(analyzer.detection.kind)
    incremental_s = time.perf_counter() - start

    start = time.perf_counter()
    batch_verdicts = []
    for stop in range(chunk, len(records) + 1, chunk):
        prefix = SignalingTrace(metadata=trace.metadata)
        for record in records[:stop]:
            prefix.append(record)
        batch_verdicts.append(analyze_trace(prefix).detection.kind)
    batch_s = time.perf_counter() - start

    # The live kind at each checkpoint may lag batch by the final
    # (unstable) interval, but on this alternating stream the loop is
    # established well inside the first chunk: kinds must agree.
    assert incremental_verdicts == batch_verdicts

    speedup = batch_s / incremental_s if incremental_s > 0 else float("inf")
    print_header("Stream ingest — incremental vs per-chunk batch re-analysis")
    print(f"incremental {incremental_s * 1e3:.1f} ms, "
          f"batch-per-chunk {batch_s * 1e3:.1f} ms -> {speedup:.1f}x")
    assert speedup >= 3.0, \
        f"incremental ingest only {speedup:.1f}x faster than re-analysis"
