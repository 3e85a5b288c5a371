"""Broker scheduler: multi-worker drain, SIGKILL stealing, bit-identity.

Two layers under test:

* :class:`BrokerScheduler` units, with every client wired straight
  into an in-process :class:`CampaignBroker` — the pump routing (lease
  expiry → ``leases_expired_total`` + breaker failure, steal →
  ``runs_stolen_total`` + breaker rebuild, gauges tracking
  depth/leases) and the stalled-queue breaker trip,
* the acceptance end-to-end: a campaign drained through ``repro broker
  serve`` by two independent ``repro worker`` subprocesses — one of
  which SIGKILLs itself mid-campaign so the survivor steals its lease,
  while ``repro status --json`` polls the broker's queue directory —
  must produce a report, checkpoint bytes and counters bit-identical
  to the same campaign run sequentially.  Workers and the coordinator
  start through ``tests/chaos/launch.py``, which installs the victim's
  SIGKILL hook (``--fail-after``) from outside ``src/``.

The end-to-end tests must use real subprocesses: the ``repro.obs``
instrumentation context is a module global, so in-process worker
threads would share (and corrupt) the coordinator's registry.
"""

import functools
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.campaign import CampaignConfig, CampaignRunner, operator
from repro.campaign.broker import CampaignBroker
from repro.campaign.broker_client import BrokerClient
from repro.campaign.scheduler import (
    BrokerScheduler,
    PendingRun,
    decode_payload,
    encode_payload,
)
from repro.obs import instrumented, make_instrumentation
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervision import CircuitBreaker, CircuitBreakerOpen
from tests.test_obs_metrics import FakeClock

#: Lease-health counters that only exist on the broker coordinator.
QUEUE_ONLY_COUNTERS = {"leases_expired_total", "runs_stolen_total"}

#: Every coordinator-only counter (lease health plus client retries);
#: everything else must match a sequential run bit-for-bit.
COORDINATOR_ONLY_COUNTERS = QUEUE_ONLY_COUNTERS \
    | {"broker_client_retries_total"}

CAMPAIGN_ARGS = ["--operator", "OP_V", "--areas", "A9",
                 "--locations", "2", "--runs", "2",
                 "--duration", "60", "--seed", "0"]

ENV = {**os.environ,
       "PYTHONPATH": str(Path(__file__).parent.parent / "src")}

#: Runs a ``repro`` command with the chaos tooling installed.
LAUNCH = str(Path(__file__).parent / "chaos" / "launch.py")

KEY = ("OP_V", "A9", "A9-P0", 0)


# ----------------------------------------------------------------------
# BrokerScheduler units
# ----------------------------------------------------------------------


def client_for(broker, clock, **kwargs):
    """A client whose ``send`` is ``broker.handle`` (no sockets)."""
    def send(method, path, body):
        status, _ctype, payload = broker.handle(method, path, body)
        return status, payload
    return BrokerClient("http://test-broker", send=send, monotonic=clock,
                        sleep=lambda _s: None,
                        retry=RetryPolicy(max_retries=2, backoff_base_s=0.0),
                        **kwargs)


def make_scheduler(tmp_path, clock, breaker=None, **kwargs):
    """A started scheduler plus a worker client, over one broker."""
    broker = CampaignBroker(tmp_path / "q", clock=clock, fsync=False)
    coordinator = client_for(broker, clock, role="coordinator",
                             identity="camp", default_lease_s=10.0)
    scheduler = BrokerScheduler(coordinator, breaker or CircuitBreaker(),
                                **kwargs)
    assert scheduler.start()
    return scheduler, client_for(broker, clock, role="worker")


def pending(key=KEY):
    task = SimpleNamespace(key=key)
    return PendingRun(scheduled=SimpleNamespace(key=key), task=task)


class TestBrokerSchedulerPump:
    def test_drain_merges_completion_and_tracks_gauges(self, tmp_path):
        clock = FakeClock()
        worker = None

        def worker_turn(_delay):
            claim = worker.claim("w1", lease_s=10.0)
            if claim is not None:
                task = decode_payload(claim.payload)
                worker.complete(claim, encode_payload(("ran", task.key)))

        scheduler, worker = make_scheduler(tmp_path, clock, poll_s=0.01,
                                           stall_s=0.0, sleep=worker_turn)
        item = pending()
        with instrumented(make_instrumentation(clock=FakeClock())) as obs:
            scheduler.submit(item)
            registry = obs.registry
            scheduler._pump()
            assert registry.gauge("queue_depth").value() == 1
            scheduler.seal()
            drained = scheduler.drain(item)
            scheduler.shutdown()
        assert drained.error is None
        assert drained.outcome == ("ran", KEY)
        assert registry.gauge("queue_depth").value() == 0
        assert registry.gauge("leases_active").value() == 0
        assert registry.counter("leases_expired_total").total() == 0

    def test_completions_already_mirrored_merge_without_a_sync(
            self, tmp_path):
        clock = FakeClock()
        broker = CampaignBroker(tmp_path / "q", clock=clock, fsync=False)
        coordinator = client_for(broker, clock, role="coordinator",
                                 identity="camp", default_lease_s=10.0)
        scheduler = BrokerScheduler(coordinator, CircuitBreaker(),
                                    stall_s=0.0)
        assert scheduler.start()
        worker = client_for(broker, clock, role="worker")
        keys = [("OP_V", "A9", f"A9-P{index}", 0) for index in range(4)]
        items = [pending(key) for key in keys]
        requests = broker.obs.registry.counter("broker_requests_total")
        with instrumented(make_instrumentation(clock=FakeClock())) as obs:
            for item in items:
                scheduler.submit(item)
            scheduler.seal()
            for _ in keys:
                claim = worker.claim("w1", lease_s=10.0)
                task = decode_payload(claim.payload)
                worker.complete(claim, encode_payload(("ran", task.key)))
            syncs = requests.value(verb="POST /v1/sync")
            outcomes = [scheduler.drain(item).outcome for item in items]
            # One sync brings all four completions into the mirror.
            assert requests.value(verb="POST /v1/sync") - syncs == 1
            scheduler.shutdown()
        assert outcomes == [("ran", key) for key in keys]
        assert obs.registry.gauge("queue_depth").value() == 0

    def test_expiry_and_steal_route_into_counters_and_breaker(
            self, tmp_path):
        clock = FakeClock()
        breaker = CircuitBreaker()
        scheduler, worker = make_scheduler(tmp_path, clock, breaker,
                                           stall_s=0.0)
        with instrumented(make_instrumentation(clock=FakeClock())) as obs:
            scheduler.submit(pending())
            worker.claim("victim", lease_s=5.0)
            scheduler._pump()
            registry = obs.registry
            assert registry.gauge("leases_active").value() == 1
            clock.advance(5.1)
            scheduler._pump()  # the sync expires the overdue lease
            assert registry.counter("leases_expired_total").total() == 1
            assert breaker.failures_total == 1
            worker.claim("thief", lease_s=5.0)
            scheduler._pump()  # mirrors the re-claim: a steal
            assert registry.counter("runs_stolen_total").total() == 1
            assert any("stolen by worker thief" in event
                       for event in breaker.events)

    def test_steal_storm_trips_the_breaker(self, tmp_path):
        clock = FakeClock()
        scheduler, worker = make_scheduler(
            tmp_path, clock, CircuitBreaker(max_rebuilds=2), stall_s=0.0)
        with instrumented(make_instrumentation(clock=FakeClock())):
            scheduler.submit(pending())
            with pytest.raises(CircuitBreakerOpen, match="rebuild"):
                for index in range(4):
                    worker.claim(f"w{index}", lease_s=5.0)
                    clock.advance(5.1)
                    scheduler._pump()

    def test_stalled_queue_trips_with_a_worker_hint(self, tmp_path):
        clock = FakeClock()
        scheduler, _worker = make_scheduler(tmp_path, clock, stall_s=30.0)
        clock.advance(31.0)
        with instrumented(make_instrumentation(clock=FakeClock())):
            with pytest.raises(CircuitBreakerOpen,
                               match="repro worker --broker"):
                scheduler._check_stall(pending())

    def test_live_workers_defer_the_stall_trip(self, tmp_path):
        clock = FakeClock()
        scheduler, worker = make_scheduler(tmp_path, clock, stall_s=30.0)
        worker.write_worker_heartbeat("w1", ttl_s=60.0)
        scheduler._pump()  # the sync's status snapshot names w1 live
        clock.advance(31.0)
        scheduler._check_stall(pending())  # benefit of the doubt: no trip


class TestSchedulerSelection:
    @pytest.mark.parametrize("config, message", [
        (CampaignConfig(scheduler="queue"), "unknown scheduler 'queue'"),
        (CampaignConfig(scheduler="broker"), "requires broker_url"),
    ])
    def test_only_pool_and_broker_are_accepted(self, config, message):
        with pytest.raises(ValueError, match=message):
            CampaignRunner([operator("OP_V")], config).run()


# ----------------------------------------------------------------------
# End-to-end: broker serve + subprocess workers draining a campaign
# ----------------------------------------------------------------------


def repro_argv(args, chaos=None):
    """``repro <args>``; through the chaos launcher, with its ``chaos``
    options (possibly none), unless ``chaos`` is None."""
    if chaos is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, LAUNCH, *chaos, *args]


def run_cli(args, timeout=300, chaos=None, **kwargs):
    return subprocess.run(repro_argv(args, chaos), env=ENV,
                          capture_output=True, text=True, timeout=timeout,
                          **kwargs)


def load_counters(path):
    counters = json.loads(Path(path).read_text())["counters"]
    return {name: series for name, series in counters.items()
            if name not in COORDINATOR_ONLY_COUNTERS}


def counter_total(path, name):
    counters = json.loads(Path(path).read_text())["counters"]
    return sum(counters.get(name, {}).values())


def start_broker(queue_dir):
    """``repro broker serve`` on a free port; returns (proc, url)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "broker", "serve",
         "--queue-dir", str(queue_dir), "--port", "0", "--no-fsync"],
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    url = {}

    def read_url():
        url["value"] = proc.stdout.readline().strip()

    reader = threading.Thread(target=read_url, daemon=True)
    reader.start()
    reader.join(timeout=60)
    if not url.get("value"):
        proc.kill()
        proc.communicate()
        raise AssertionError("broker never printed its URL")
    return proc, url["value"]


def stop_broker(proc):
    """SIGTERM (the graceful drain); returns (exit code, stderr)."""
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    stderr = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    return code, stderr


@pytest.fixture(scope="module")
def sequential(tmp_path_factory):
    """The ``workers=1`` oracle every broker drain must match."""
    root = tmp_path_factory.mktemp("sequential")
    checkpoint = root / "ck.jsonl"
    metrics = root / "metrics.json"
    proc = run_cli(["campaign", *CAMPAIGN_ARGS,
                    "--checkpoint", str(checkpoint),
                    "--metrics-out", str(metrics)])
    assert proc.returncode == 0, proc.stderr
    return SimpleNamespace(stdout=proc.stdout,
                           checkpoint_bytes=checkpoint.read_bytes(),
                           counters=load_counters(metrics))


def poll_status_json(queue_dir, views, stop):
    """Run ``repro status --json`` in a loop while the campaign lives.

    Every successful poll must parse as JSON — that *is* the assertion:
    the status surface stays coherent mid-campaign, beside a live
    broker, coordinator and workers.
    """
    while not stop.is_set():
        proc = run_cli(["status", str(queue_dir), "--json",
                        "--events", "100"], timeout=60)
        if proc.returncode == 0:
            views.append(json.loads(proc.stdout))
        stop.wait(0.25)


def drain_processes(worker_argvs, coordinator_argv, after_workers=None):
    """Start the workers, then run the coordinator; returns its
    ``CompletedProcess``, the worker processes and their exit codes.

    A worker launched with ``--fail-after`` runs alone until it has
    SIGKILLed itself, and the others start only then: started beside
    it, a worker can drain every run before the victim makes the claim
    it is to be killed on.  ``after_workers`` runs once the first
    workers are started.
    """
    victims = [index for index, argv in enumerate(worker_argvs)
               if "--fail-after" in argv] or range(len(worker_argvs))
    spawn = functools.partial(subprocess.Popen, env=ENV, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    workers = {index: spawn(worker_argvs[index]) for index in victims}
    coordinator = None
    try:
        if after_workers is not None:
            after_workers()
        coordinator = spawn(coordinator_argv)
        for index in victims:
            workers[index].wait(timeout=120)
        for index, argv in enumerate(worker_argvs):
            if index not in workers:
                workers[index] = spawn(argv)
        stdout, stderr = coordinator.communicate(timeout=300)
        codes = [workers[index].wait(timeout=120)
                 for index in range(len(worker_argvs))]
    finally:
        for proc in [coordinator, *workers.values()]:
            if proc is not None and proc.poll() is None:
                proc.kill()
        for proc in workers.values():
            proc.communicate()
        if coordinator is not None:
            coordinator.communicate()
    return (subprocess.CompletedProcess(coordinator_argv, coordinator.returncode,
                                        stdout, stderr),
            [workers[index] for index in range(len(worker_argvs))], codes)


def run_broker_drain(tmp_path, worker_specs, poll_status=False):
    """Broker first, then workers (they poll until the coordinator
    attaches), then the coordinator (see :func:`drain_processes`).
    Each worker spec is ``(launcher options, worker options)``."""
    queue_dir = tmp_path / "qdir"
    checkpoint = tmp_path / "ck.jsonl"
    metrics = tmp_path / "metrics.json"
    broker, url = start_broker(queue_dir)
    status_views = []
    stop_polling = threading.Event()
    poller = threading.Thread(target=poll_status_json,
                              args=(queue_dir, status_views, stop_polling),
                              daemon=True)
    try:
        coordinator, workers, worker_codes = drain_processes(
            [repro_argv(["worker", "--broker", url,
                         "--worker-id", f"w{index}",
                         "--telemetry-dir", str(queue_dir / "telemetry"),
                         *extra], chaos)
             for index, (chaos, extra) in enumerate(worker_specs)],
            repro_argv(["campaign", *CAMPAIGN_ARGS,
                        "--broker", url, "--lease-timeout", "10",
                        "--checkpoint", str(checkpoint),
                        "--metrics-out", str(metrics)], []),
            after_workers=poller.start if poll_status else None)
    finally:
        stop_polling.set()
        if poll_status and poller.is_alive():
            poller.join(timeout=120)
        broker_code, broker_stderr = stop_broker(broker)
    return SimpleNamespace(coordinator=coordinator, worker_codes=worker_codes,
                           worker_pids=[worker.pid for worker in workers],
                           checkpoint=checkpoint, metrics=metrics,
                           queue_dir=queue_dir, status_views=status_views,
                           broker_code=broker_code,
                           broker_stderr=broker_stderr)


class TestBrokerWorkersEndToEnd:
    def test_two_workers_drain_bit_identical_to_sequential(
            self, tmp_path, sequential):
        outcome = run_broker_drain(tmp_path, [([], []), ([], [])])
        assert outcome.coordinator.returncode == 0, \
            outcome.coordinator.stderr
        assert outcome.worker_codes == [0, 0]
        assert outcome.coordinator.stdout == sequential.stdout
        assert outcome.checkpoint.read_bytes() == sequential.checkpoint_bytes
        assert load_counters(outcome.metrics) == sequential.counters
        assert counter_total(outcome.metrics, "runs_stolen_total") == 0
        assert outcome.broker_code == 128 + signal.SIGTERM, \
            outcome.broker_stderr

    def test_sigkilled_worker_is_stolen_from_bit_identically(
            self, tmp_path, sequential):
        # w0 SIGKILLs itself right after its first claim (before
        # executing it) under a short lease; w1 must steal the orphaned
        # lease and the merge must not show a seam.  `repro status
        # --json` polls the broker's queue directory the whole time.
        outcome = run_broker_drain(
            tmp_path, [(["--fail-after", "1"], ["--lease", "3"]), ([], [])],
            poll_status=True)
        assert outcome.coordinator.returncode == 0, \
            outcome.coordinator.stderr
        assert outcome.worker_codes[0] == -signal.SIGKILL
        assert outcome.worker_codes[1] == 0
        assert outcome.coordinator.stdout == sequential.stdout
        assert outcome.checkpoint.read_bytes() == sequential.checkpoint_bytes
        assert load_counters(outcome.metrics) == sequential.counters
        assert counter_total(outcome.metrics, "runs_stolen_total") >= 1
        assert counter_total(outcome.metrics, "leases_expired_total") >= 1
        self._check_status_views(outcome)

    def _check_status_views(self, outcome):
        """The telemetry-plane acceptance assertions over the drain."""
        # Mid-campaign polls parsed (poll_status_json already proved
        # JSON validity); at least one saw work outstanding.
        assert outcome.status_views
        assert any(view["queue"]["submitted"] > 0
                   for view in outcome.status_views)
        # The post-campaign view replays everything durably.
        proc = run_cli(["status", str(outcome.queue_dir), "--json",
                        "--events", "200"])
        assert proc.returncode == 0, proc.stderr
        final = json.loads(proc.stdout)
        assert final["queue"]["depth"] == 0
        assert final["queue"]["drained"] is True
        names = [event["name"] for event in final["events"]]
        assert "queue.run_stolen" in names
        assert "queue.lease_expired" in names
        # The SIGKILLed worker's pre-kill telemetry survives in its
        # spool, attributed: its claim and the fault-injection marker.
        w0_events = {event["name"] for event in final["events"]
                     if event.get("worker") == "w0"}
        assert "worker.claim" in w0_events
        assert "worker.fail_injection" in w0_events
        # Worker liveness: both workers are known; the victim's stolen
        # run ended up attributed to the survivor at some point.
        workers = {record["worker"]: record for record in final["workers"]}
        assert set(workers) == {"w0", "w1"}
        assert all("live" in record for record in workers.values())
        # Each heartbeat names its worker's own process, not the
        # broker's that wrote the file.
        assert [workers["w0"]["pid"], workers["w1"]["pid"]] \
            == outcome.worker_pids
        assert len(set(outcome.worker_pids)) == 2
        # Aggregated completions reconcile with the coordinator's own
        # final metrics export (w0 completed nothing before the kill).
        assert final["counters"].get("campaign_runs_completed_total") \
            == counter_total(outcome.metrics,
                             "campaign_runs_completed_total")
        assert final["telemetry"]["spools"] == 2
