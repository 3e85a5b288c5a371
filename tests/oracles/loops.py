"""The naive loop detector the production one is tested against.

Production (``repro.core.loops``) finds loops with one online detector
that updates per-period match lengths as each dedup element arrives.
The functions here do the same job the direct way, with nothing shared
but the result types and the block rotation:

* :func:`dedup_sequence` merges consecutive equal cell sets with
  :func:`itertools.groupby`, not with the production ``SpanDedup``;
* :func:`detect_loop` is the seed's slice-comparing scan (O(n³) slice
  work), with the corrected persistence rule: the repetitions plus a
  partial-block tail that is a prefix of the block must extend to the
  end of the deduplicated sequence.

The Hypothesis properties in ``tests/test_core_loops.py`` and
``tests/test_core_incremental.py`` compare production against
:func:`detect_loop`, whole ``LoopDetection`` against whole
``LoopDetection``.
"""

from __future__ import annotations

from itertools import groupby

from repro.core.cellset import CellSet, CellSetInterval
from repro.core.loops import LoopDetection, LoopKind, _canonical_rotation


def dedup_sequence(intervals: list[CellSetInterval]) -> list[CellSet]:
    """The cell set sequence with consecutive duplicates merged."""
    return [cellset for cellset, _ in
            groupby(interval.cellset for interval in intervals)]


def detect_loop(intervals: list[CellSetInterval],
                min_repetitions: int = 2) -> LoopDetection:
    """Scan every (start, period) pair, earliest start then shortest
    period, for a state-mixed block repeating ``min_repetitions`` times."""
    sequence = dedup_sequence(intervals)
    n = len(sequence)
    for start in range(n):
        for period in range(2, (n - start) // min_repetitions + 1):
            block = sequence[start:start + period]
            if not any(cellset.five_g_on for cellset in block):
                continue
            if all(cellset.five_g_on for cellset in block):
                continue
            repetitions = 1
            while sequence[start + repetitions * period:
                           start + (repetitions + 1) * period] == block:
                repetitions += 1
            if repetitions < min_repetitions:
                continue
            end = start + repetitions * period
            tail = 0
            while end + tail < n and sequence[end + tail] == block[tail]:
                tail += 1
            kind = LoopKind.PERSISTENT if end + tail == n \
                else LoopKind.SEMI_PERSISTENT
            return LoopDetection(kind=kind, start_index=start, period=period,
                                 repetitions=repetitions,
                                 block=_canonical_rotation(block))
    return LoopDetection(kind=LoopKind.NO_LOOP)
