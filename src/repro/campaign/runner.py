"""Campaign execution: stationary runs over operators, areas, locations.

Mirrors section 4.1's design: per area, a set of sparse test locations;
per location, repeated 5-minute stationary speed-test runs; every run
is simulated, captured as a signaling trace, and pushed through the
analysis pipeline immediately (traces are discarded by default to keep
a full campaign's memory footprint small).

Execution is fault-tolerant, because partial failure is the normal case
in a months-long field campaign: each run executes through a seeded
retry policy, runs that fail permanently are quarantined into
``CampaignResult.quarantined`` instead of aborting the campaign, and an
optional append-only JSONL checkpoint lets an interrupted campaign
resume from the last completed run (completed runs are re-analysed from
their checkpointed traces rather than re-simulated).

Every run executes through one function, :func:`_run_task` (retry
loop, ``run`` span, retry/quarantine counters), and every backend feeds
one schedule-order merge loop, :meth:`CampaignRunner._run_scheduled`
(checkpoint append, result, terminal event, breaker, graceful shutdown).
Sequential execution is the :class:`~repro.campaign.scheduler.InlineScheduler`:
``_run_task`` in this process, one run at a time.  Runs are
embarrassingly parallel (every run is seeded per key), so
``CampaignConfig.workers > 1`` fans the schedule out over a process
pool, and ``scheduler="broker"`` over independent ``repro worker``
processes draining a ``repro broker serve``; workers ship back
``(result-or-quarantine, metrics snapshot, spans)`` payloads that the
parent merges **in schedule order**, so the ``CampaignResult``,
checkpoint contents and every exported counter are bit-identical to
sequential execution for the same seed.  Checkpoint appends and the
campaign's run-outcome events only ever happen in the parent process.

Execution is *supervised* (see :mod:`repro.resilience.supervision`):
every run gets a cooperative wall-clock budget
(``CampaignConfig.run_timeout_s``), hung or crashed pool workers are
killed and the pool rebuilt with the in-flight keys rescheduled — all
bounded by a circuit breaker — and SIGTERM/SIGINT drain finished
futures and flush the checkpoint before the resume hint.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.campaign.dataset import CampaignResult, QuarantinedRun, RunResult
from repro.campaign.scheduler import (
    BrokerScheduler,
    InlineScheduler,
    PendingRun,
    PoolScheduler,
    Scheduler,
)
from repro.campaign.devices import device as device_by_name
from repro.campaign.locations import sparse_locations
from repro.campaign.operators import OperatorProfile, build_deployment
from repro.core.deadline import check_deadline, deadline_scope
from repro.core.pipeline import analyze_trace
from repro.core.seeding import stable_seed as _run_seed
from repro.obs import (
    Instrumentation,
    NULL_INSTRUMENTATION,
    Span,
    get_instrumentation,
    instrumented,
    make_instrumentation,
)
from repro.radio.deployment import AreaDeployment
from repro.radio.geometry import Point
from repro.resilience.checkpoint import CampaignCheckpoint, CheckpointEntry, RunKey
from repro.resilience.memo import AnalysisMemo, trace_digest
from repro.resilience.retry import RetryPolicy, execute_with_retry
from repro.resilience.supervision import (
    CircuitBreaker,
    RunTimeoutError,
    ShutdownRequested,
    parent_wait_budget,
)
from repro.rrc.capabilities import DeviceCapabilities
from repro.rrc.session import RunConfig, simulate_run
from repro.traces.log import TraceMetadata


def run_once(
    deployment: AreaDeployment,
    profile: OperatorProfile,
    device: DeviceCapabilities,
    point: Point,
    location_name: str,
    run_index: int,
    duration_s: int = 300,
    keep_trace: bool = False,
    mode: str = "stationary",
    point_provider: Callable[[int], Point] | None = None,
    memo: AnalysisMemo | None = None,
) -> RunResult:
    """Simulate and analyse one run at one location.

    ``memo`` short-circuits the analysis stage through the
    content-addressed cache (see :mod:`repro.resilience.memo`): the
    simulated trace's canonical serialisation is digested, a hit
    returns the cached :class:`RunAnalysis` and a miss analyses then
    populates the cache.
    """
    metadata = TraceMetadata(
        operator=profile.name,
        area=deployment.area.name,
        location=location_name,
        device=device.name,
        run_seed=_run_seed(profile.name, deployment.area.name, location_name,
                           device.name, run_index),
        mode=mode,
    )
    config = RunConfig(
        duration_s=duration_s,
        run_seed=metadata.run_seed,
        metadata=metadata,
        rate_model=profile.rate_model,
        point_provider=point_provider,
    )
    obs = get_instrumentation()
    with obs.tracer.span("simulate", operator=profile.name,
                         area=deployment.area.name, location=location_name,
                         seed=metadata.run_seed), \
            obs.registry.timer("stage_seconds", stage="simulate"):
        trace = simulate_run(deployment.environment, profile.policy, device,
                             point, config)
    check_deadline("simulate")
    analysis = None
    if memo is not None:
        digest = trace_digest(trace.to_jsonl())
        analysis = memo.get(digest)
    if analysis is None:
        analysis = analyze_trace(trace)
        if memo is not None:
            memo.put(digest, analysis)
    return RunResult(metadata=metadata, analysis=analysis,
                     trace=trace if keep_trace else None, point=point)


def loop_probability_at(
    deployment: AreaDeployment,
    profile: OperatorProfile,
    device: DeviceCapabilities,
    point: Point,
    location_name: str,
    n_runs: int = 5,
    duration_s: int = 300,
    subtype_value: str | None = None,
) -> float:
    """Measured loop probability at one location (section 6 ground truth).

    If ``subtype_value`` is given (e.g. ``"S1E3"``), only loops of that
    sub-type count; otherwise any loop does.
    """
    if n_runs <= 0:
        raise ValueError("n_runs must be positive")
    hits = 0
    for run_index in range(n_runs):
        result = run_once(deployment, profile, device, point, location_name,
                          run_index, duration_s=duration_s)
        if not result.has_loop:
            continue
        if subtype_value is None or result.analysis.subtype.value == subtype_value:
            hits += 1
    return hits / n_runs


#: How long a graceful SIGTERM/SIGINT stop waits for finished head runs
#: to merge into the checkpoint before the backend is killed.
SHUTDOWN_GRACE_S = 5.0


@dataclass
class CampaignConfig:
    """Scale knobs of a campaign.

    The defaults reproduce the paper's design (A1 gets 25 locations and
    10 runs each, other areas 5-7 locations and 5 runs each); tests pass
    smaller numbers.

    The resilience knobs: ``max_retries`` / ``retry_backoff_s`` bound
    the per-run retry loop (backoff is seeded and deterministic, see
    :mod:`repro.resilience.retry`), ``checkpoint_path`` enables
    append-only JSONL checkpointing of every finished run, and
    ``resume=True`` restores completed runs from that checkpoint instead
    of re-simulating them (failed runs are always re-attempted).

    ``workers`` fans run execution out over a process pool (``<= 1``
    keeps the in-process path).  Parallel execution is bit-identical to
    sequential for the same seed: results, checkpoint contents and
    exported counters are merged in schedule order by the parent.

    The supervision knobs (see :mod:`repro.resilience.supervision`):
    ``run_timeout_s`` gives every run a wall-clock budget — enforced
    cooperatively between pipeline stages in-process, and by a
    parent-side future deadline with worker kill-and-respawn in the
    pool path; a timed-out run flows into retry/quarantine as a
    :class:`RunTimeoutError`.  ``breaker_max_rebuilds`` /
    ``breaker_max_consecutive_failures`` bound supervision-level
    recovery before the campaign fails fast (``0`` disables the
    consecutive-failure check).  ``checkpoint_fsync=False`` trades the
    per-append fsync durability guarantee for throughput.

    The scheduler knobs (see :mod:`repro.campaign.scheduler`):
    ``scheduler="pool"`` keeps the in-host supervised ProcessPool
    (sequential when ``workers <= 1``); ``scheduler="broker"`` submits
    the schedule to the ``repro broker serve`` at ``broker_url`` and
    merges completions produced by independent ``repro worker``
    processes — ``lease_timeout_s`` is the work-claim lease each worker
    must heartbeat, and ``queue_stall_s`` how long a silent queue with no
    live workers is tolerated before the circuit breaker fails the
    campaign fast (``0`` disables).  All of these are execution knobs:
    they are deliberately excluded from
    :meth:`CampaignRunner.campaign_identity`, so checkpoints and broker
    queues interoperate across pool/broker/sequential execution.

    ``memo_dir`` enables the content-addressed analysis cache (see
    :mod:`repro.resilience.memo`): fresh runs digest their simulated
    traces and resume digests checkpointed trace text, so re-running or
    resuming a campaign against a warm cache skips re-analysis of
    unchanged traces.  Also an execution knob — cached results are
    bit-identical to recomputed ones, so the cache never changes what a
    campaign produces, only how fast.
    """

    device_name: str = "OnePlus 12R"
    duration_s: int = 300
    runs_per_location: int = 5
    a1_runs_per_location: int = 10
    locations_per_area: int = 6
    a1_locations: int = 25
    keep_traces: bool = False
    seed: int = 0
    area_names: list[str] | None = None
    max_retries: int = 0
    retry_backoff_s: float = 0.5
    checkpoint_path: str | Path | None = None
    resume: bool = False
    workers: int = 1
    run_timeout_s: float | None = None
    checkpoint_fsync: bool = True
    breaker_max_rebuilds: int = 3
    breaker_max_consecutive_failures: int = 0
    scheduler: str = "pool"
    lease_timeout_s: float = 30.0
    queue_stall_s: float = 60.0
    memo_dir: str | Path | None = None
    #: ``scheduler="broker"``: coordinate through the ``repro broker
    #: serve`` process at this URL.  An execution knob like the rest —
    #: excluded from campaign_identity.
    broker_url: str | None = None

    def locations_for(self, area_name: str) -> int:
        return self.a1_locations if area_name == "A1" else self.locations_per_area

    def runs_for(self, area_name: str) -> int:
        return self.a1_runs_per_location if area_name == "A1" \
            else self.runs_per_location

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_retries=self.max_retries,
                           backoff_base_s=self.retry_backoff_s,
                           seed=self.seed)

    def breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            max_rebuilds=self.breaker_max_rebuilds,
            max_consecutive_failures=self.breaker_max_consecutive_failures)


#: One schedulable run: everything run_once needs, plus its identity key.
@dataclass(frozen=True)
class ScheduledRun:
    key: RunKey
    deployment: AreaDeployment
    profile: OperatorProfile
    point: Point
    location_name: str
    run_index: int


# ----------------------------------------------------------------------
# Run execution, shared by every scheduler
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _WorkerTask:
    """One run as a scheduler carries it (no deployment: rebuilt by
    out-of-process workers)."""

    key: RunKey
    profile: OperatorProfile
    area_name: str
    point: Point
    location_name: str
    run_index: int
    device_name: str
    duration_s: int
    keep_trace: bool
    policy: RetryPolicy
    instrument: bool
    run_timeout_s: float | None = None
    # Memo cache wiring (str, not Path: tasks pickle into the broker's
    # spool as well as the pool pipe).
    memo_dir: str | None = None
    memo_identity: str | None = None


@dataclass
class _WorkerOutcome:
    """What executing one task produced: payload + telemetry to merge.

    ``metrics``/``spans`` are only set by out-of-process workers; a run
    executed in the coordinator reported into its bundle directly.
    """

    key: RunKey
    run_result: RunResult | None
    quarantined: QuarantinedRun | None
    attempts: int
    retries: int
    metrics: dict | None = None
    spans: list[dict] = field(default_factory=list)
    timed_out: bool = False


#: Per-worker-process deployment cache: deployments are deterministic
#: functions of (operator, area), so rebuilding once per process is
#: cheaper than pickling the full cell inventory into every task.
_WORKER_DEPLOYMENTS: dict[tuple[str, str], AreaDeployment] = {}


def _worker_deployment(profile: OperatorProfile,
                       area_name: str) -> AreaDeployment:
    key = (profile.name, area_name)
    deployment = _WORKER_DEPLOYMENTS.get(key)
    if deployment is None:
        deployment = build_deployment(profile, area_name)
        _WORKER_DEPLOYMENTS[key] = deployment
    return deployment


def _run_task(task: _WorkerTask, deployment: AreaDeployment,
              **span_attributes) -> _WorkerOutcome:
    """One run through the retry loop, reported into the active bundle.

    Every run executes here: in the coordinator (inline scheduler,
    unrestorable-checkpoint fallback) or under
    :func:`_execute_worker_task`.  It records the ``run`` span and the
    retry/quarantine counters; the terminal event, checkpoint and
    result stay with the schedule-order merge.  :func:`run_once` is
    looked up at call time, so a test that patches the module global
    substitutes every run on every backend; it receives ``memo=`` only
    when a memo is configured.  Retry backoff is recorded, never waited
    out; ``span_attributes`` extend the ``run`` span (a worker's pid).
    ``timed_out`` flags a quarantine caused by the run's wall-clock
    budget (own tally and counter).
    """
    obs = get_instrumentation()
    registry = obs.registry
    test_device = device_by_name(task.device_name)
    run_kwargs = {}
    if task.memo_dir is not None:
        run_kwargs["memo"] = AnalysisMemo(task.memo_dir,
                                          identity=task.memo_identity)

    def attempt() -> RunResult:
        # Each retry attempt gets a fresh cooperative deadline; a run
        # that overruns raises RunTimeoutError at the next stage
        # boundary (or here, if it only overran while finishing) and
        # flows through the normal retry/quarantine machinery.
        with deadline_scope(task.run_timeout_s):
            value = run_once(deployment, task.profile, test_device,
                             task.point, task.location_name, task.run_index,
                             duration_s=task.duration_s,
                             keep_trace=task.keep_trace, **run_kwargs)
            check_deadline("run")
            return value

    with obs.tracer.span("run", operator=task.profile.name,
                         area=task.area_name, location=task.location_name,
                         run_index=task.run_index,
                         **span_attributes) as span:
        outcome = execute_with_retry(attempt, task.policy, key=task.key)
        span.set_attribute("attempts", outcome.attempts)
        retries = outcome.attempts - 1
        if retries:
            registry.counter("campaign_run_retries_total").inc(retries)
            registry.counter("campaign_runs_retried_total").inc()
        if outcome.succeeded:
            registry.counter("campaign_runs_completed_total").inc()
            span.set_attribute("outcome", "completed")
            return _WorkerOutcome(key=task.key, run_result=outcome.value,
                                  quarantined=None, attempts=outcome.attempts,
                                  retries=retries)
        error = outcome.error
        timed_out = isinstance(error, RunTimeoutError)
        registry.counter("campaign_runs_quarantined_total").inc()
        if timed_out:
            registry.counter("campaign_run_timeouts_total").inc()
            span.set_attribute("timed_out", True)
        span.set_attribute("outcome", "quarantined")
    quarantined = QuarantinedRun(*task.key,
                                 error=f"{type(error).__name__}: {error}",
                                 attempts=outcome.attempts)
    return _WorkerOutcome(key=task.key, run_result=None,
                          quarantined=quarantined, attempts=outcome.attempts,
                          retries=retries, timed_out=timed_out)


def _emit_outcome(events, outcome: _WorkerOutcome) -> None:
    """The run's terminal event: ``run.completed`` or ``run.quarantined``."""
    if outcome.quarantined is None:
        events.emit("run.completed", severity="debug", run_key=outcome.key,
                    attempts=outcome.attempts)
    else:
        events.emit("run.quarantined", severity="warning",
                    run_key=outcome.key, error=outcome.quarantined.error,
                    attempts=outcome.attempts, timed_out=outcome.timed_out)


def _execute_worker_task(task: _WorkerTask) -> _WorkerOutcome:
    """Pool/broker-worker entry point: :func:`_run_task` in a fresh bundle.

    Checkpointing, result accounting and the campaign's run-outcome
    events stay with the coordinator: the worker ships its metrics
    snapshot and spans back for an in-schedule-order merge.
    """
    obs = make_instrumentation() if task.instrument else NULL_INSTRUMENTATION
    ambient_events = get_instrumentation().events
    if task.instrument and ambient_events.enabled:
        # A broker worker keeps one process-wide event log (bound to its
        # worker id, flushed to its telemetry spool); task execution
        # reports events there rather than into the discarded per-task
        # bundle.  A pool worker's ambient log is the null one: the
        # pool's worker initializer drops the coordinator's bundle a
        # fork worker inherits, sinks included.
        obs.events = ambient_events
    deployment = _worker_deployment(task.profile, task.area_name)
    with instrumented(obs):
        outcome = _run_task(task, deployment, worker_pid=os.getpid())
        _emit_outcome(obs.events, outcome)
    if task.instrument:
        outcome.metrics = obs.registry.snapshot()
        outcome.spans = [span.to_dict() for span in obs.tracer.spans()]
    return outcome


def _mp_context():
    """A usable multiprocessing context (cheapest start method first).

    Returns ``None`` when the platform offers no workable start method,
    in which case the runner falls back to in-process execution.
    """
    try:
        import multiprocessing
        methods = multiprocessing.get_all_start_methods()
    except (ImportError, OSError):  # pragma: no cover - platform specific
        return None
    for method in ("fork", "forkserver", "spawn"):
        if method not in methods:
            continue
        try:
            return multiprocessing.get_context(method)
        except ValueError:  # pragma: no cover - platform specific
            continue
    return None  # pragma: no cover - platform specific


@dataclass
class CampaignRunner:
    """Run a full campaign over one or more operator profiles.

    Every run goes through :func:`run_once`, on every backend.  Retry
    backoff is recorded, never waited out.

    ``obs`` is the observability bundle the campaign reports into: a
    ``campaign`` → ``run`` → ``simulate``/``analyze`` span hierarchy,
    scheduled/completed/quarantined/restored/retry counters that mirror
    :meth:`CampaignResult.reconciles`, and one terminal event per run
    (what a :class:`~repro.obs.StderrProgressReporter` sink folds into
    its tallies).  It defaults to the
    ambient bundle (usually the no-op one), and is installed as the
    active bundle for the whole run so the pipeline, parser and retry
    instrumentation report into the same registry.
    """

    profiles: list[OperatorProfile]
    config: CampaignConfig = field(default_factory=CampaignConfig)
    obs: Instrumentation | None = None

    def schedule(self) -> Iterator[ScheduledRun]:
        """Every run this campaign will execute, in order."""
        for profile in self.profiles:
            for spec in profile.areas:
                if self.config.area_names is not None \
                        and spec.name not in self.config.area_names:
                    continue
                deployment = build_deployment(profile, spec.name)
                count = self.config.locations_for(spec.name)
                points = sparse_locations(
                    spec.area, count,
                    seed=_run_seed(self.config.seed, profile.name, spec.name))
                for index, point in enumerate(points):
                    location_name = f"{spec.name}-P{index + 1}"
                    for run_index in range(self.config.runs_for(spec.name)):
                        yield ScheduledRun(
                            key=(profile.name, spec.name, location_name,
                                 run_index),
                            deployment=deployment, profile=profile,
                            point=point, location_name=location_name,
                            run_index=run_index)

    def run(self) -> CampaignResult:
        obs = self.obs if self.obs is not None else get_instrumentation()
        with instrumented(obs):
            obs.events.bind(campaign=self.campaign_identity())
            try:
                result = self._dispatch(obs)
            except BaseException as error:
                obs.events.emit("campaign.aborted", severity="error",
                                error=f"{type(error).__name__}: {error}")
                raise
            obs.events.emit("campaign.finished",
                            scheduled=result.scheduled,
                            completed=result.completed,
                            quarantined=len(result.quarantined))
            return result

    def _dispatch(self, obs: Instrumentation) -> CampaignResult:
        backend = self.config.scheduler
        if backend not in ("pool", "broker"):
            raise ValueError(f"unknown scheduler {backend!r} "
                             "(expected 'pool' or 'broker')")
        breaker = self.config.breaker()
        policy = self.config.retry_policy()
        workers = self.config.workers or 1
        scheduler = None
        if backend == "broker":
            scheduler = self._broker_scheduler(breaker)
        elif workers > 1:
            scheduler = self._pool_scheduler(workers, breaker, policy)
        if scheduler is None:  # sequential execution in this process
            workers = 1
            scheduler = InlineScheduler(lambda item: _run_task(
                item.task, item.scheduled.deployment))
        schedule = list(self.schedule())
        obs.events.emit("campaign.started", scheduler=scheduler.name,
                        workers=workers, seed=self.config.seed,
                        scheduled=len(schedule))
        return self._run_scheduled(obs, scheduler, schedule, breaker, policy,
                                   workers)

    def _memo(self) -> AnalysisMemo | None:
        """The campaign's analysis memo cache, or ``None`` when disabled."""
        if self.config.memo_dir is None:
            return None
        return AnalysisMemo(self.config.memo_dir,
                            identity=self.campaign_identity())

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------

    def _pool_scheduler(self, workers: int, breaker: CircuitBreaker,
                        policy: RetryPolicy) -> PoolScheduler | None:
        """The supervised process-pool backend, started.

        Returns ``None`` when the platform lacks usable multiprocessing
        (the caller then runs the schedule in-process).  Supervision
        (parent-side wait budgets, kill-and-rebuild cycles, in-flight
        rescheduling) lives in
        :class:`~repro.campaign.scheduler.PoolScheduler`.
        """
        context = _mp_context()
        if context is None:
            return None
        run_timeout = self.config.run_timeout_s
        wait_budget = (parent_wait_budget(run_timeout, policy.max_retries)
                       if run_timeout is not None else None)
        scheduler = PoolScheduler(workers, context, breaker, policy,
                                  wait_budget, _execute_worker_task)
        return scheduler if scheduler.start() else None

    def _broker_scheduler(self, breaker: CircuitBreaker) -> BrokerScheduler:
        """The coordinator of a ``repro broker serve``, started.

        The coordinator submits every task to the broker's durable
        queue, seals it, and merges completions — produced by
        independent ``repro worker`` processes claiming leases from the
        same broker — strictly in schedule order.  It executes no runs
        itself (unrestorable checkpoint entries excepted), so it can be
        killed and restarted against the same broker at any point; so
        can any worker, whose outstanding leases expire and get stolen
        by the survivors.  The broker client is imported lazily: pool
        and sequential campaigns never load the HTTP stack.
        """
        if self.config.broker_url is None:
            raise ValueError("scheduler='broker' requires broker_url")
        from repro.campaign.broker_client import BrokerClient

        client = BrokerClient(self.config.broker_url, role="coordinator",
                              identity=self.campaign_identity(),
                              default_lease_s=self.config.lease_timeout_s)
        scheduler = BrokerScheduler(client, breaker,
                                    stall_s=self.config.queue_stall_s)
        scheduler.start()  # may raise CheckpointMismatchError
        return scheduler

    def _run_scheduled(self, obs: Instrumentation, scheduler: Scheduler,
                       schedule: list[ScheduledRun], breaker: CircuitBreaker,
                       policy: RetryPolicy, workers: int) -> CampaignResult:
        """The schedule-order merge loop every backend feeds.

        Ordering contract: runs are *dispatched* as the backend has
        capacity (bounded by ``scheduler.window()``) but *merged*
        strictly in schedule order, and all checkpoint appends and
        run-outcome events happen here in the parent — so results,
        checkpoint contents and exported counters are bit-identical to
        sequential execution for the same seed whenever no worker hangs
        or crashes.  SIGTERM/SIGINT drain already-finished head slots
        into the checkpoint (within :data:`SHUTDOWN_GRACE_S`) before
        re-raising for the CLI's resume hint.
        """
        try:
            # May raise CheckpointMismatchError on a foreign checkpoint.
            checkpoint, restored = self._open_checkpoint()
        except BaseException:
            scheduler.kill()
            raise
        result = CampaignResult()
        memo = self._memo()
        registry = obs.registry
        keep_trace = self.config.keep_traces or checkpoint is not None
        instrument = obs.registry.enabled or obs.tracer.enabled
        memo_dir = memo_identity = None
        if memo is not None:
            memo_dir, memo_identity = str(self.config.memo_dir), memo.identity
        window = scheduler.window()
        pending: deque[PendingRun] = deque()
        campaign_span = None

        def task_for(scheduled: ScheduledRun) -> _WorkerTask:
            return _WorkerTask(
                key=scheduled.key, profile=scheduled.profile,
                area_name=scheduled.deployment.area.name,
                point=scheduled.point, location_name=scheduled.location_name,
                run_index=scheduled.run_index,
                device_name=self.config.device_name,
                duration_s=self.config.duration_s, keep_trace=keep_trace,
                policy=policy, instrument=instrument,
                run_timeout_s=self.config.run_timeout_s,
                memo_dir=memo_dir, memo_identity=memo_identity)

        def drain_one() -> None:
            item = pending.popleft()
            scheduled = item.scheduled
            result.scheduled += 1
            registry.counter("campaign_runs_scheduled_total").inc()
            if item.task is None:  # checkpointed: restore in-parent
                entry = restored[scheduled.key]
                restored_run = self._restore_span(entry, scheduled, obs, memo)
                if restored_run is not None:
                    result.add(restored_run)
                    registry.counter(
                        "campaign_runs_completed_total").inc()
                    registry.counter(
                        "campaign_runs_restored_total").inc()
                    breaker.record_success()
                    return
                # Unrestorable (corrupt or trace-less entry): re-execute
                # in-process, where it stays in schedule order.
                outcome = _run_task(task_for(scheduled), scheduled.deployment)
            else:
                drained = scheduler.drain(item)
                if drained.error is not None:
                    # The backend gave the run up (hung/crashed past the
                    # retry budget); quarantine it parent-side.
                    self._supervision_quarantine(scheduled, drained.error,
                                                 drained.attempts,
                                                 checkpoint, result, obs)
                    return
                outcome = drained.outcome
            self._merge_worker_outcome(scheduled, outcome, checkpoint,
                                       result, obs, campaign_span, breaker)

        try:
            with obs.tracer.span(
                    "campaign", seed=self.config.seed,
                    operators=",".join(p.name for p in self.profiles),
                    scheduled=len(schedule), workers=workers) as campaign_span:
                for scheduled in schedule:
                    entry = restored.get(scheduled.key)
                    if entry is not None and entry.succeeded:
                        pending.append(PendingRun(scheduled=scheduled))
                    else:
                        item = PendingRun(scheduled=scheduled,
                                          task=task_for(scheduled))
                        scheduler.submit(item)
                        pending.append(item)
                    if window is not None:
                        while len(pending) >= window:
                            drain_one()
                scheduler.seal()
                while pending:
                    drain_one()
            scheduler.shutdown()
        except (KeyboardInterrupt, ShutdownRequested):
            # Graceful stop: merge the head slots that already finished
            # (bounded by SHUTDOWN_GRACE_S) so their outcomes reach the
            # checkpoint, then kill whatever is still running —
            # an orderly shutdown could block on a hung run forever.
            self._drain_on_shutdown(pending, scheduler, checkpoint, result,
                                    obs, campaign_span, breaker)
            scheduler.kill()
            raise
        except BaseException:
            # Breaker trip / crash: abandon queued runs so the failure
            # surfaces promptly instead of waiting out the backlog.
            scheduler.kill()
            raise
        return result

    def _supervision_quarantine(self, scheduled: ScheduledRun,
                                error: Exception, attempts: int,
                                checkpoint: CampaignCheckpoint | None,
                                result: CampaignResult,
                                obs: Instrumentation) -> None:
        """Quarantine a run the scheduler gave up on (parent-side).

        Mirrors the worker-side quarantine accounting so
        :meth:`CampaignResult.reconciles` and the exported counters stay
        consistent whichever side declared the run dead.
        """
        timed_out = isinstance(error, RunTimeoutError)
        with obs.tracer.span("run", operator=scheduled.profile.name,
                             area=scheduled.deployment.area.name,
                             location=scheduled.location_name,
                             run_index=scheduled.run_index,
                             supervised=True) as span:
            span.set_attribute("attempts", attempts)
            span.set_attribute("outcome", "quarantined")
            if timed_out:
                span.set_attribute("timed_out", True)
        quarantined = QuarantinedRun(
            *scheduled.key, error=f"{type(error).__name__}: {error}",
            attempts=attempts)
        obs.registry.counter("campaign_runs_quarantined_total").inc()
        obs.events.emit("supervision.quarantined", severity="warning",
                        run_key=scheduled.key, error=quarantined.error,
                        attempts=attempts, timed_out=timed_out)
        result.quarantine(quarantined)
        if checkpoint is not None:
            checkpoint.record_failure(scheduled.key, quarantined.error,
                                      attempts)

    def _drain_on_shutdown(self, pending: deque[PendingRun],
                           scheduler: Scheduler,
                           checkpoint: CampaignCheckpoint | None,
                           result: CampaignResult, obs: Instrumentation,
                           campaign_span, breaker: CircuitBreaker) -> None:
        """Merge already-finished head slots before a graceful stop.

        Walks the schedule-order queue head while the head outcome is
        (or becomes, within the remaining :data:`SHUTDOWN_GRACE_S`)
        available, so completed in-flight work lands in the checkpoint
        instead of being re-executed on resume.  Restored (checkpointed)
        heads are simply dropped — resume restores them again for free.
        Stops at the first unfinished head: merging past it would break
        the schedule-order contract.
        """
        registry = obs.registry
        deadline_s = time.monotonic() + SHUTDOWN_GRACE_S
        while pending:
            item = pending[0]
            if item.task is None:
                pending.popleft()
                continue
            remaining = deadline_s - time.monotonic()
            try:
                outcome = scheduler.poll(item, max(0.0, remaining))
            except BaseException:  # not done in time, crashed, cancelled
                break
            pending.popleft()
            result.scheduled += 1
            registry.counter("campaign_runs_scheduled_total").inc()
            try:
                self._merge_worker_outcome(item.scheduled, outcome,
                                           checkpoint, result, obs,
                                           campaign_span, breaker)
            except Exception:  # never mask the shutdown being handled
                break

    def _merge_worker_outcome(self, scheduled: ScheduledRun,
                              outcome: _WorkerOutcome,
                              checkpoint: CampaignCheckpoint | None,
                              result: CampaignResult, obs: Instrumentation,
                              campaign_span, breaker: CircuitBreaker) -> None:
        """Fold one run's outcome into the parent, in schedule order."""
        if outcome.metrics is not None:
            obs.registry.merge(outcome.metrics)
        if outcome.spans:
            obs.tracer.adopt([Span.from_dict(data) for data in outcome.spans],
                             parent=campaign_span)
        _emit_outcome(obs.events, outcome)
        if outcome.quarantined is not None:
            result.quarantine(outcome.quarantined)
            if checkpoint is not None:
                checkpoint.record_failure(scheduled.key,
                                          outcome.quarantined.error,
                                          outcome.attempts)
            breaker.record_failure("quarantine", scheduled.key)
            return
        run_result = outcome.run_result
        if checkpoint is not None:  # every task asked for its trace
            checkpoint.record_success(scheduled.key,
                                      run_result.trace.to_jsonl())
        if not self.config.keep_traces:
            run_result.trace = None
        result.add(run_result)
        breaker.record_success()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def campaign_identity(self) -> str:
        """Hash of everything that defines this campaign's schedule.

        Written into the checkpoint's v1 header so resuming against a
        checkpoint from a different campaign (other seed, operators,
        schedule shape, device or duration) is rejected instead of
        silently merged.  Deliberately excludes execution knobs that do
        not change the results — ``workers``, retries, timeouts — so a
        checkpoint written sequentially resumes under a pool and vice
        versa.
        """
        config = self.config
        areas = "*" if config.area_names is None \
            else ",".join(sorted(config.area_names))
        return format(_run_seed(
            "campaign-v1", config.seed, config.device_name,
            config.duration_s, config.runs_per_location,
            config.a1_runs_per_location, config.locations_per_area,
            config.a1_locations, areas,
            ",".join(profile.name for profile in self.profiles)), "08x")

    def _open_checkpoint(self) -> tuple[CampaignCheckpoint | None,
                                        dict[RunKey, CheckpointEntry]]:
        if self.config.checkpoint_path is None:
            return None, {}
        checkpoint = CampaignCheckpoint(self.config.checkpoint_path,
                                        identity=self.campaign_identity(),
                                        fsync=self.config.checkpoint_fsync)
        if self.config.resume:
            # Raises CheckpointMismatchError when the file's header
            # identity names a different campaign.
            return checkpoint, checkpoint.load()
        # A fresh (non-resumed) campaign must not inherit stale entries.
        checkpoint.path.unlink(missing_ok=True)
        return checkpoint, {}

    def _restore_span(self, entry: CheckpointEntry, scheduled: ScheduledRun,
                      obs: Instrumentation,
                      memo: AnalysisMemo | None = None) -> RunResult | None:
        """Checkpoint restoration wrapped in its own ``run`` span."""
        with obs.tracer.span("run", operator=scheduled.profile.name,
                             area=scheduled.deployment.area.name,
                             location=scheduled.location_name,
                             run_index=scheduled.run_index,
                             restored=True) as span:
            restored_run = self._restore(entry, scheduled.point, memo)
            span.set_attribute(
                "outcome", "restored" if restored_run is not None
                else "restore_failed")
        if restored_run is not None:
            obs.events.emit("run.restored", severity="debug",
                            run_key=scheduled.key)
        else:
            obs.events.emit("checkpoint.restore_failed", severity="warning",
                            run_key=scheduled.key)
        return restored_run

    def _restore(self, entry: CheckpointEntry, point: Point,
                 memo: AnalysisMemo | None = None) -> RunResult | None:
        """Rebuild a RunResult from a checkpointed trace (no re-simulation).

        Returns ``None`` when the checkpointed trace yields no usable
        records (e.g. the file was corrupted on disk), in which case the
        run is re-executed.

        With a memo cache the checkpoint's embedded trace text *is* the
        canonical serialisation, so its digest resolves without parsing:
        a hit skips both the parse and the re-analysis (unless traces
        must be kept, which needs the parse anyway).
        """
        from repro.traces.parser import parse_trace

        trace_jsonl = entry.trace_jsonl or ""
        digest = trace_digest(trace_jsonl) if memo is not None else None
        if memo is not None and not self.config.keep_traces:
            analysis = memo.get(digest)
            if analysis is not None:
                return RunResult(metadata=analysis.metadata,
                                 analysis=analysis, trace=None, point=point)
        parsed = parse_trace(trace_jsonl, errors="recover")
        trace = parsed.trace
        if not trace.records:
            return None
        analysis = memo.get(digest) if memo is not None \
            and self.config.keep_traces else None
        if analysis is None:
            analysis = analyze_trace(trace)
            if memo is not None:
                memo.put(digest, analysis)
        return RunResult(
            metadata=trace.metadata,
            analysis=analysis,
            trace=trace if self.config.keep_traces else None,
            point=point)
