"""The calibration probe that turns host seconds into reference seconds.

The host this benchmark was built on (a 2-vCPU VM) changes speed by up
to 2x for seconds to minutes at a time, each vCPU on its own, so a
throughput or set-up time in host seconds depends on when it was taken.
Probes right before and after each timed step measure the speed the
step ran at; scaled by them, the step reads as it would on a machine
where :func:`probe` takes ``PROBE_REFERENCE_S``.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Collection

#: What :func:`probe` takes on the reference machine.
PROBE_REFERENCE_S = 0.010


def probe(cpus: Collection[int] | None = None) -> float:
    """Time of a fixed pure-Python loop: on each of ``cpus`` (default:
    the first four this process may use), the median of three runs;
    then the mean."""
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus or allowed)[:4]:
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(3):
                start = time.perf_counter()
                total = 0
                for value in range(100_000):
                    total += value * value % 7
                times.append(time.perf_counter() - start)
            per_cpu.append(sorted(times)[1])
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(per_cpu)


def to_reference(host_s: float, before: float, after: float) -> float:
    """``host_s`` seconds timed between two probes, in reference seconds."""
    return host_s * PROBE_REFERENCE_S / ((before + after) / 2)
