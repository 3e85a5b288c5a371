"""Deterministic retry with seeded backoff for campaign runs.

Field campaigns lose individual runs (app crashes, modem wedges, a
server that stops serving) without invalidating the campaign.  The
runner therefore executes every run through :func:`execute_with_retry`:
a bounded number of attempts with exponential backoff whose jitter is
*seeded* — derived from the retry seed and the run key, never from wall
clock or global RNG state — so a re-run of the same campaign retries at
identical simulated delays and quarantines identical runs.

The loop records the backoff schedule (``AttemptOutcome.backoffs_s``,
the ``retry_backoff_seconds`` histogram) and never waits it out: a
simulated run has no field conditions to wait for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.seeding import stable_seed as _mix
from repro.obs import get_instrumentation

#: Bucket bounds for the attempts-per-run histogram (attempt counts are
#: small integers, so unit-width buckets keep the distribution exact).
ATTEMPT_BUCKETS: tuple[float, ...] = (1, 2, 3, 4, 5, 8, 13, 21)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a failed run, and how long to wait.

    Attempt ``n`` (zero-based retry index) backs off
    ``backoff_base_s * backoff_factor**n``, scaled by a deterministic
    jitter in ``[1, 1 + jitter]`` derived from ``(seed, key, n)``.
    ``max_retries == 0`` means one attempt, no retries.

    ``backoff_max_s`` caps the post-jitter delay: ``backoff_factor**n``
    grows without bound, so long network-retry loops (the broker
    client's per-verb retries) would otherwise sleep for minutes on the
    tail attempts.  The default ``None`` preserves the exact schedules
    existing policies produce for their configured ``max_retries``.
    """

    max_retries: int = 0
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    backoff_max_s: float | None = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_max_s is not None and self.backoff_max_s < 0:
            raise ValueError("backoff_max_s must be >= 0 (or None)")

    def backoff_s(self, key: tuple, retry_index: int) -> float:
        """Deterministic backoff before retry ``retry_index`` of ``key``."""
        base = self.backoff_base_s * self.backoff_factor ** retry_index
        unit = _mix(self.seed, *key, retry_index) / 0xFFFFFFFF
        delay = base * (1.0 + self.jitter * unit)
        if self.backoff_max_s is not None:
            delay = min(delay, self.backoff_max_s)
        return delay

    def schedule(self, key: tuple) -> list[float]:
        """The full backoff schedule this policy would use for ``key``."""
        return [self.backoff_s(key, n) for n in range(self.max_retries)]


@dataclass
class AttemptOutcome:
    """What happened when a run was pushed through the retry loop."""

    value: object = None
    attempts: int = 0
    error: Exception | None = None
    backoffs_s: list[float] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.error is None


def execute_with_retry(fn: Callable[[], object], policy: RetryPolicy,
                       key: tuple = ()) -> AttemptOutcome:
    """Run ``fn`` under ``policy``; never raises on run failure.

    ``Exception`` s from ``fn`` are retried up to ``policy.max_retries``
    times and the last one is returned in the outcome; ``BaseException``
    (e.g. ``KeyboardInterrupt``) propagates so an operator can stop a
    campaign and later resume it from the checkpoint.
    """
    obs = get_instrumentation()
    registry = obs.registry
    outcome = AttemptOutcome()
    for attempt in range(policy.max_retries + 1):
        outcome.attempts = attempt + 1
        try:
            outcome.value = fn()
            outcome.error = None
            break
        except Exception as error:  # noqa: BLE001 - per-run isolation
            outcome.error = error
            if attempt >= policy.max_retries:
                break
            delay = policy.backoff_s(key, attempt)
            outcome.backoffs_s.append(delay)
            registry.histogram("retry_backoff_seconds").observe(delay)
            obs.events.emit("run.retry", severity="warning",
                            run_key=key or None, attempt=attempt + 1,
                            backoff_s=round(delay, 4),
                            error=f"{type(error).__name__}: {error}")
    registry.histogram("retry_attempts",
                       buckets=ATTEMPT_BUCKETS).observe(outcome.attempts)
    if outcome.backoffs_s:
        registry.counter("retry_retries_total").inc(len(outcome.backoffs_s))
    return outcome
