"""Performance metrics of loops (sections 4.2-4.3, Figures 10, 11, 19).

From a run's cell set timeline and throughput capture we derive:

* the ON-OFF **cycles**: (ON duration, OFF duration) pairs, giving cycle
  time, OFF time and OFF ratio (Figure 10); when a loop was detected the
  extraction is restricted to the loop's own time window so pre-loop and
  post-loop transitions cannot pollute the distributions;
* the **download speed** during ON and OFF periods and the per-cycle
  speed loss (Figures 1b and 11);
* the **5G measurement recovery delay** after an SCG failure — how long
  until the next measurement report contains any 5G cell (Figure 19c,
  the OP_V 30-second-multiple behaviour).

Every metric reads the trace's columnar tables
(:mod:`repro.core.columnar`): the speed split is one ``searchsorted`` of
the sample times into the 5G timeline's segment ends, and the recovery
delay one ``searchsorted`` of the failure times into the NR-bearing
report times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.columnar import IntervalColumns, RecordColumns


@dataclass(frozen=True)
class CycleMetrics:
    """One ON-OFF cycle of a loop."""

    on_s: float
    off_s: float

    @property
    def cycle_s(self) -> float:
        return self.on_s + self.off_s

    @property
    def off_ratio(self) -> float:
        if self.cycle_s <= 0:
            return 0.0
        return self.off_s / self.cycle_s


def _median(values: list[float]) -> float:
    """``float(np.median(values))`` without the per-call numpy overhead.

    Bit-identical: ``np.median`` selects the middle element for odd
    sizes and averages the two middle elements (``(a + b) / 2`` in
    float64) for even sizes — the per-cycle segments here hold a
    handful of samples each, where ``sorted`` beats ``np.partition``'s
    fixed cost by an order of magnitude.
    """
    ordered = sorted(values)
    n = len(ordered)
    mid = n >> 1
    if n & 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def loop_cycles(icolumns: IntervalColumns,
                window: tuple[float, float] | None = None,
                ) -> list[CycleMetrics]:
    """Extract every complete ON-then-OFF cycle from the 5G timeline.

    ``window`` restricts extraction to a [start, end) time span —
    normally the detected loop's span (see
    :func:`repro.core.loops.loop_window`), so cycles outside the
    periodic region do not contaminate the Figure 10 distributions.
    Segments straddling the window boundary are clipped to it.
    """
    seg_on = icolumns.seg_on
    seg_start = icolumns.seg_start
    seg_end = icolumns.seg_end
    if window is not None:
        start_w, end_w = window
        seg_start = np.maximum(seg_start, start_w)
        seg_end = np.minimum(seg_end, end_w)
        keep = seg_end > seg_start
        seg_on, seg_start, seg_end = seg_on[keep], seg_start[keep], seg_end[keep]
    return [CycleMetrics(on_s=float(seg_end[i] - seg_start[i]),
                         off_s=float(seg_end[i + 1] - seg_start[i + 1]))
            for i in np.flatnonzero(seg_on[:-1] & ~seg_on[1:])]


@dataclass
class RunPerformance:
    """Speed statistics of one run split by 5G state."""

    on_speed_samples: list[float] = field(default_factory=list)
    off_speed_samples: list[float] = field(default_factory=list)
    cycle_speed_losses: list[float] = field(default_factory=list)

    @property
    def median_on_mbps(self) -> float:
        if not self.on_speed_samples:
            return 0.0
        return float(np.median(self.on_speed_samples))

    @property
    def median_off_mbps(self) -> float:
        if not self.off_speed_samples:
            return 0.0
        return float(np.median(self.off_speed_samples))

    @property
    def median_speed_loss_mbps(self) -> float:
        if not self.cycle_speed_losses:
            return max(self.median_on_mbps - self.median_off_mbps, 0.0)
        return float(np.median(self.cycle_speed_losses))


def run_performance(rcolumns: RecordColumns,
                    icolumns: IntervalColumns) -> RunPerformance:
    """Split the 1 Hz speed series by 5G state and compute per-cycle losses.

    Samples captured *before* the first signaling record carry no known
    5G state and are dropped; samples past the final segment extrapolate
    its state, as the capture simply outlived the signaling.  For an
    in-range sample, "the first segment with ``t < end``" is exactly
    ``searchsorted(seg_end, t, side='right')``, and the samples before
    the first / past the last segment split off as contiguous
    prefix/suffix blocks because both series are time-ordered.
    """
    performance = RunPerformance()
    seg_on, seg_end = icolumns.seg_on, icolumns.seg_end
    t = rcolumns.throughput_t
    if seg_on.size == 0 or t.size == 0:
        return performance
    mbps = rcolumns.throughput_mbps
    first_start = icolumns.seg_start[0]
    last_end = seg_end[-1]
    lo = int(np.searchsorted(t, first_start, side="left"))
    hi = int(np.searchsorted(t, last_end, side="left"))
    in_mbps = mbps[lo:hi]
    idx = np.searchsorted(seg_end, t[lo:hi], side="right")
    on_mask = seg_on[idx]
    performance.on_speed_samples = in_mbps[on_mask].tolist()
    performance.off_speed_samples = in_mbps[~on_mask].tolist()
    tail = mbps[hi:]
    if tail.size:
        # Samples past the last segment extrapolate its state.
        bucket = performance.on_speed_samples if seg_on[-1] \
            else performance.off_speed_samples
        bucket.extend(tail.tolist())
    # Per-cycle loss: median ON speed minus median OFF speed inside each
    # consecutive (ON, OFF) segment pair; idx is non-decreasing, so each
    # segment's samples are one slice.
    pairs = np.flatnonzero(seg_on[:-1] & ~seg_on[1:])
    if pairs.size:
        bounds = np.searchsorted(idx, np.arange(seg_on.size + 1), side="left")
        samples = in_mbps.tolist()
        for index in pairs:
            on_speeds = samples[bounds[index]:bounds[index + 1]]
            off_speeds = samples[bounds[index + 1]:bounds[index + 2]]
            if on_speeds and off_speeds:
                performance.cycle_speed_losses.append(
                    _median(on_speeds) - _median(off_speeds))
    return performance


def scg_measurement_delays(rcolumns: RecordColumns) -> list[float]:
    """Delay from each SCG failure to the next report containing a 5G cell."""
    failure_t = rcolumns.scg_failure_t
    report_t = rcolumns.nr_report_t
    if failure_t.size == 0:
        return []
    positions = np.searchsorted(report_t, failure_t, side="right")
    valid = positions < report_t.size
    return (report_t[positions[valid]] - failure_t[valid]).tolist()
