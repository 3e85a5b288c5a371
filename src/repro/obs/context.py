"""The active-instrumentation context: how hot paths find their tools.

The instrumented modules (:mod:`repro.core.pipeline`,
:mod:`repro.traces.parser`, :mod:`repro.resilience.retry`,
:mod:`repro.campaign.runner`) never take registry/tracer parameters —
their signatures are hot-path API and stay clean.  Instead they call
:func:`get_instrumentation`, which returns the process-wide active
:class:`Instrumentation` bundle.  The default bundle is entirely no-op,
so uninstrumented code pays only a module-global read and a few empty
method calls; enabling observability is a scoped swap::

    obs = make_instrumentation()
    with instrumented(obs):
        result = CampaignRunner(profiles, config).run()
    obs.registry.export_json("metrics.json")

The swap is re-entrant (nesting restores the previous bundle) and the
campaign runner applies it automatically when handed an ``obs=``
bundle.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer

__all__ = [
    "Instrumentation",
    "NULL_INSTRUMENTATION",
    "get_instrumentation",
    "instrumented",
    "make_instrumentation",
    "reset_instrumentation",
]


@dataclass
class Instrumentation:
    """One bundle of the three observability layers."""

    registry: MetricsRegistry = NULL_REGISTRY
    tracer: Tracer = NULL_TRACER
    events: EventLog = NULL_EVENTS
    enabled: bool = True


#: The default bundle: every layer disabled, every call a no-op.
NULL_INSTRUMENTATION = Instrumentation(enabled=False)

_active: Instrumentation = NULL_INSTRUMENTATION


def get_instrumentation() -> Instrumentation:
    """The bundle instrumented code reports into right now."""
    return _active


@contextmanager
def instrumented(obs: Instrumentation) -> Iterator[Instrumentation]:
    """Make ``obs`` the active bundle for the duration of the block."""
    global _active
    previous = _active
    _active = obs
    try:
        yield obs
    finally:
        _active = previous


def reset_instrumentation() -> None:
    """Make the no-op bundle active for the rest of the process.

    For the process pool's worker initializer: a ``fork`` worker starts
    with a copy of the coordinator's active bundle, sinks included, and
    must not report into it (every event would reach stderr twice).
    """
    global _active
    _active = NULL_INSTRUMENTATION


def make_instrumentation(clock: Callable[[], float] = time.monotonic,
                         ) -> Instrumentation:
    """A live bundle: fresh registry + tracer + events on one clock."""
    return Instrumentation(registry=MetricsRegistry(clock=clock),
                           tracer=Tracer(clock=clock),
                           events=EventLog(clock=clock))
