"""Chaos harness: the full campaign→analyze pipeline under injected faults.

This is the test substrate for the resilience subsystem: it runs a real
campaign in which (a) a seeded subset of runs raise — some on every
attempt (permanent failures that must end up quarantined), some only on
their first attempt (transient failures that retries must absorb) — and
(b) every surviving run's serialized trace is corrupted by a seeded
:class:`~tests.chaos.faults.FaultInjector` before being re-parsed
in recover mode and analysed.  The pipeline must complete end-to-end and
its accounting must reconcile: ``completed + quarantined == scheduled``,
and identical seeds must yield identical quarantine lists and
:class:`~repro.resilience.ingest.ParseReport` tallies.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.campaign.dataset import CampaignResult, RunResult
from repro.campaign.runner import CampaignConfig, CampaignRunner, run_once
from repro.core.pipeline import analyze_trace
from repro.core.seeding import stable_seed as _mix
from repro.resilience.checkpoint import RunKey
from repro.resilience.ingest import ParseReport
from repro.traces.parser import parse_trace
from tests.chaos.faults import FAULT_KINDS, FaultInjector, InjectionReport


class ChaosRunError(RuntimeError):
    """The failure a chaotic run raises (stands in for app/modem crashes)."""


class SimulatedInterrupt(KeyboardInterrupt):
    """Raised to interrupt a campaign mid-flight (resume testing).

    A ``KeyboardInterrupt`` subclass on purpose: the retry loop only
    absorbs ``Exception``, so this propagates exactly like an operator's
    Ctrl-C would, leaving the checkpoint behind.
    """


@dataclass
class ChaosConfig:
    """Knobs of one chaos experiment (all effects are seeded)."""

    seed: int = 0
    fault_rate: float = 0.05
    fault_kinds: tuple[str, ...] = FAULT_KINDS
    run_failure_rate: float = 0.1
    transient_failure_rate: float = 0.1
    interrupt_after: int | None = None


@dataclass
class ChaosReport:
    """Everything a chaos run observed, for reconciliation checks."""

    result: CampaignResult
    parse_reports: dict[RunKey, ParseReport] = field(default_factory=dict)
    injections: dict[RunKey, InjectionReport] = field(default_factory=dict)

    def quarantine_keys(self) -> list[RunKey]:
        return [entry.key for entry in self.result.quarantined]

    def reconciles(self) -> bool:
        return self.result.reconciles()

    def total_parse_tallies(self) -> dict:
        """Aggregate recover-mode tallies over every analysed run."""
        parsed = sum(r.parsed_records for r in self.parse_reports.values())
        skipped = sum(r.skipped_records for r in self.parse_reports.values())
        by_kind: Counter = Counter()
        by_class: Counter = Counter()
        for report in self.parse_reports.values():
            by_kind.update(report.errors_by_kind)
            by_class.update(report.errors_by_class)
        return {
            "parsed_records": parsed,
            "skipped_records": skipped,
            "errors_by_kind": dict(by_kind),
            "errors_by_class": dict(by_class),
        }

    def total_injected(self) -> dict[str, int]:
        totals: Counter = Counter()
        for injection in self.injections.values():
            totals.update(injection.counts())
        return dict(totals)


class ChaosHarness:
    """Drive a campaign through seeded run failures and trace corruption."""

    def __init__(self, profiles, config: CampaignConfig,
                 chaos: ChaosConfig | None = None):
        self.profiles = profiles
        self.config = config
        self.chaos = chaos or ChaosConfig()
        self.parse_reports: dict[RunKey, ParseReport] = {}
        self.injections: dict[RunKey, InjectionReport] = {}
        self._attempts: dict[RunKey, int] = defaultdict(int)
        self._completed = 0

    def attempts_ledger(self) -> dict[RunKey, int]:
        """How many times each run key was attempted (telemetry checks)."""
        return dict(self._attempts)

    def run(self) -> ChaosReport:
        """Run the campaign; raises :class:`SimulatedInterrupt` only when
        the chaos config asked for one."""
        runner = CampaignRunner(self.profiles, self.config,
                                run_fn=self._chaotic_run_once)
        result = runner.run()
        return ChaosReport(result=result,
                           parse_reports=dict(self.parse_reports),
                           injections=dict(self.injections))

    # ------------------------------------------------------------------
    # The chaotic run function (CampaignRunner.run_fn)
    # ------------------------------------------------------------------

    def _chaotic_run_once(self, deployment, profile, device, point,
                          location_name, run_index, duration_s=300,
                          keep_trace=False) -> RunResult:
        key: RunKey = (profile.name, deployment.area.name, location_name,
                       run_index)
        if self.chaos.interrupt_after is not None \
                and self._completed >= self.chaos.interrupt_after:
            raise SimulatedInterrupt(
                f"chaos interrupt after {self._completed} completed runs")
        attempt = self._attempts[key]
        self._attempts[key] += 1
        self._maybe_fail(key, attempt)

        clean = run_once(deployment, profile, device, point, location_name,
                         run_index, duration_s=duration_s, keep_trace=True)
        injector = FaultInjector(seed=_mix(self.chaos.seed, "fault", *key),
                                 rate=self.chaos.fault_rate,
                                 kinds=self.chaos.fault_kinds)
        corrupted, injection = injector.corrupt(clean.trace.to_jsonl())
        parsed = parse_trace(corrupted, errors="recover")
        self.parse_reports[key] = parsed.report
        self.injections[key] = injection
        self._completed += 1
        trace = parsed.trace
        return RunResult(metadata=trace.metadata,
                         analysis=analyze_trace(trace),
                         trace=trace if keep_trace else None,
                         point=point)

    def _maybe_fail(self, key: RunKey, attempt: int) -> None:
        """Seeded per-key failure decision: permanent or first-attempt-only."""
        draw = _mix(self.chaos.seed, "fail", *key) / 0xFFFFFFFF
        if draw < self.chaos.run_failure_rate:
            raise ChaosRunError(f"injected permanent failure at {key}")
        transient_band = self.chaos.run_failure_rate \
            + self.chaos.transient_failure_rate
        if draw < transient_band and attempt == 0:
            raise ChaosRunError(f"injected transient failure at {key}")


def run_chaos_campaign(profiles, config: CampaignConfig,
                       chaos: ChaosConfig | None = None) -> ChaosReport:
    """Convenience wrapper: build a harness, run it, return the report."""
    return ChaosHarness(profiles, config, chaos).run()
