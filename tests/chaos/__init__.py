"""Fault injection and chaos tooling the resilience tests attack with.

* :mod:`tests.chaos.faults` — the seeded trace :class:`FaultInjector`
  (truncate/drop/duplicate/reorder/mangle).
* :mod:`tests.chaos.netfaults` — the seeded
  :class:`NetworkFaultInjector` wrapped around a broker client's send.
* :mod:`tests.chaos.harness` — :class:`ChaosHarness`, a real campaign
  through seeded run failures and trace corruption.
* :mod:`tests.chaos.launch` — starts a ``repro`` CLI command with the
  network injector and the worker's SIGKILL hook installed, for the
  end-to-end subprocess tests.
"""
