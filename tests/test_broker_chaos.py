"""Broker chaos suite: exactly-once under a deterministic lossy network.

Three layers:

* :class:`NetworkFaultInjector` units — seeded determinism, partition
  windows, and the precise semantics of each fault kind (in particular
  ``drop_response``, where the broker *did* commit the verb — the
  at-least-once hazard the idempotency keys exist for).
* In-process chaos: a coordinator client and a worker client, both
  behind fault injectors dropping/duplicating/delaying/mangling ≥20 %
  of exchanges, drain a campaign against one ``CampaignBroker`` —
  asserting the PR 6 invariants (no run completed twice, no claimed
  run lost, every outcome merged exactly once).
* The acceptance end-to-end: a real ``repro broker serve`` subprocess,
  two ``repro worker --broker`` subprocesses (one SIGKILLs itself
  mid-lease), and a coordinator — all three clients under 25 % fault
  injection — must produce a report, checkpoint bytes and counters
  bit-identical to the same campaign run sequentially.

The end-to-end layer uses real subprocesses for the same reason the
queue suite does: the ``repro.obs`` instrumentation context is a
module global.
"""

import signal
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.campaign.broker import CampaignBroker
from repro.campaign.broker_client import BrokerClient
from repro.resilience.netfaults import (
    NET_FAULT_KINDS,
    InjectedNetworkFault,
    NetworkFaultInjector,
)
from repro.resilience.retry import RetryPolicy
from tests.test_obs_metrics import FakeClock
from tests.test_scheduler_queue import (
    CAMPAIGN_ARGS,
    ENV,
    QUEUE_ONLY_COUNTERS,
    counter_total,
    load_counters,
    run_cli,
    start_broker,
)

#: Coordinator-side counters that exist only on the broker path, over
#: and above the queue-only lease-health ones.
BROKER_ONLY_COUNTERS = QUEUE_ONLY_COUNTERS | {"broker_client_retries_total"}


def load_broker_counters(path):
    return {name: series for name, series in load_counters(path).items()
            if name not in BROKER_ONLY_COUNTERS}


# ----------------------------------------------------------------------
# NetworkFaultInjector units
# ----------------------------------------------------------------------


def ok_send(method, path, body):
    return 200, b"ok"


class TestNetworkFaultInjector:
    def test_validates_rate_and_kinds(self):
        with pytest.raises(ValueError, match="rate"):
            NetworkFaultInjector(ok_send, rate=1.5)
        with pytest.raises(ValueError, match="unknown fault kinds"):
            NetworkFaultInjector(ok_send, kinds=("drop_request", "gremlin"))

    def test_same_seed_same_fault_schedule(self):
        def schedule(seed):
            injector = NetworkFaultInjector(ok_send, seed=seed, rate=0.5,
                                            sleep=lambda _s: None)
            outcomes = []
            for _ in range(60):
                try:
                    injector("POST", "/v1/claim", b"")
                    outcomes.append("delivered")
                except InjectedNetworkFault:
                    outcomes.append("dropped")
            return outcomes, dict(injector.report.counts)

        first = schedule(7)
        assert schedule(7) == first
        assert schedule(8) != first

    def test_zero_rate_is_transparent(self):
        injector = NetworkFaultInjector(ok_send, rate=0.0)
        for _ in range(20):
            assert injector("GET", "/v1/status", b"") == (200, b"ok")
        assert injector.report.faults == 0
        assert injector.report.requests == 20

    def test_partition_windows_are_request_count_based(self):
        injector = NetworkFaultInjector(ok_send, rate=0.0,
                                        partition_every=3,
                                        partition_length=2)
        outcomes = []
        for _ in range(10):
            try:
                injector("POST", "/v1/claim", b"")
                outcomes.append("ok")
            except InjectedNetworkFault:
                outcomes.append("cut")
        assert outcomes == ["ok", "ok", "ok", "cut", "cut",
                            "ok", "ok", "ok", "cut", "cut"]
        assert injector.report.counts["partition"] == 4

    def test_drop_response_still_delivers_to_the_broker(self):
        delivered = []

        def recording(method, path, body):
            delivered.append(path)
            return 200, b"ok"

        injector = NetworkFaultInjector(recording, rate=1.0,
                                        kinds=("drop_response",))
        with pytest.raises(InjectedNetworkFault):
            injector("POST", "/v1/complete", b"")
        assert delivered == ["/v1/complete"]  # the commit happened

    def test_drop_request_never_reaches_the_broker(self):
        def exploding(method, path, body):
            raise AssertionError("request should have been dropped")

        injector = NetworkFaultInjector(exploding, rate=1.0,
                                        kinds=("drop_request",))
        with pytest.raises(InjectedNetworkFault):
            injector("POST", "/v1/claim", b"")

    def test_duplicate_delivers_twice(self):
        delivered = []

        def recording(method, path, body):
            delivered.append(path)
            return 200, b"ok"

        injector = NetworkFaultInjector(recording, rate=1.0,
                                        kinds=("duplicate",))
        assert injector("POST", "/v1/claim", b"") == (200, b"ok")
        assert delivered == ["/v1/claim", "/v1/claim"]

    def test_error_503_short_circuits(self):
        def exploding(method, path, body):
            raise AssertionError("503 is injected before the broker")

        injector = NetworkFaultInjector(exploding, rate=1.0,
                                        kinds=("error_503",))
        status, _body = injector("GET", "/v1/status", b"")
        assert status == 503

    def test_mangle_flips_exactly_one_byte(self):
        payload = b"x" * 64

        def constant(method, path, body):
            return 200, payload

        injector = NetworkFaultInjector(constant, rate=1.0,
                                        kinds=("mangle_response",))
        status, mangled = injector("GET", "/v1/status", b"")
        assert status == 200 and len(mangled) == len(payload)
        assert sum(1 for a, b in zip(payload, mangled) if a != b) == 1

    def test_delay_uses_injected_sleep_bounded(self):
        slept = []
        injector = NetworkFaultInjector(ok_send, rate=1.0, kinds=("delay",),
                                        delay_s=0.5, sleep=slept.append)
        assert injector("GET", "/v1/status", b"") == (200, b"ok")
        assert len(slept) == 1 and 0.0 <= slept[0] <= 0.5

    def test_report_summary(self):
        injector = NetworkFaultInjector(ok_send, rate=1.0,
                                        kinds=("error_503",))
        injector("GET", "/v1/status", b"")
        assert injector.report.summary() == \
            "1/1 requests faulted (error_503=1)"
        assert NET_FAULT_KINDS  # the public kind list stays exported


# ----------------------------------------------------------------------
# In-process chaos: both clients behind sustained fault injection
# ----------------------------------------------------------------------


class TestChaosInProcess:
    RUNS = 8

    def _make_client(self, broker, *, seed, role, worker_id=None,
                     partition_every=None, **client_kwargs):
        def inner(method, path, body):
            status, _ctype, payload = broker.handle(method, path, body)
            return status, payload

        injector = NetworkFaultInjector(inner, seed=seed, rate=0.35,
                                        partition_every=partition_every,
                                        sleep=lambda _s: None)
        client = BrokerClient(
            "http://chaos-broker", role=role, worker_id=worker_id,
            send=injector, sleep=lambda _s: None,
            retry=RetryPolicy(max_retries=14, backoff_base_s=0.0,
                              seed=seed),
            **client_kwargs)
        return client, injector

    def _drain(self, coordinator, worker, broker):
        assert coordinator.open(create=True)
        for index in range(self.RUNS):
            assert coordinator.submit((f"r{index}",),
                                      f"payload-{index}") == index
        coordinator.close()
        assert worker.open()
        completions = 0
        while completions < self.RUNS * 4:  # safety bound, not a target
            claim = worker.claim("w0", lease_s=60.0)
            if claim is None:
                break
            assert claim.payload == f"payload-{claim.seq}"
            if worker.complete(claim, f"outcome-{claim.seq}"):
                completions += 1
        # Exactly-once, asserted against the broker's replayed state:
        # every submitted run is done, none more than once (LeaseState
        # counts completions; fenced/duplicated deliveries never
        # increment it past the schedule).
        state = broker._queue.state
        assert state.stats.submitted == self.RUNS
        assert state.stats.completed == self.RUNS
        assert state.drained()
        coordinator.expire_overdue()
        outcomes = [coordinator.take_completion(index)
                    for index in range(self.RUNS)]
        assert outcomes == [f"outcome-{index}"
                            for index in range(self.RUNS)]
        assert [coordinator.take_completion(index)
                for index in range(self.RUNS)] == [None] * self.RUNS

    def test_sustained_faults_keep_exactly_once(self, tmp_path):
        broker = CampaignBroker(tmp_path / "q", clock=FakeClock(),
                                fsync=False)
        coordinator, coord_faults = self._make_client(
            broker, seed=1, role="coordinator", identity="chaos",
            default_lease_s=60.0)
        worker, worker_faults = self._make_client(
            broker, seed=2, role="worker", worker_id="w0")
        self._drain(coordinator, worker, broker)
        # The run was genuinely hostile: ≥20 % of exchanges faulted,
        # including committed-but-unacknowledged deliveries.
        total_requests = (coord_faults.report.requests
                          + worker_faults.report.requests)
        total_faults = (coord_faults.report.faults
                        + worker_faults.report.faults)
        assert total_faults / total_requests >= 0.20, (
            coord_faults.report.summary(), worker_faults.report.summary())

    def test_partition_outage_windows_are_survived(self, tmp_path):
        broker = CampaignBroker(tmp_path / "q", clock=FakeClock(),
                                fsync=False)
        coordinator, _ = self._make_client(
            broker, seed=3, role="coordinator", identity="chaos",
            default_lease_s=60.0, partition_every=10)
        worker, worker_faults = self._make_client(
            broker, seed=4, role="worker", worker_id="w0",
            partition_every=10)
        self._drain(coordinator, worker, broker)
        assert worker_faults.report.counts.get("partition", 0) >= 1


# ----------------------------------------------------------------------
# End-to-end: broker serve + subprocess workers + SIGKILL + faults
# ----------------------------------------------------------------------


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


def run_broker_campaign(tmp_path, worker_extra_args, fault_rate="0.25",
                        lease_timeout="10"):
    queue_dir = tmp_path / "qdir"
    checkpoint = tmp_path / "ck.jsonl"
    metrics = tmp_path / "metrics.json"
    broker, url = start_broker(queue_dir)
    workers = []
    try:
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--broker", url, "--worker-id", f"w{index}",
                 "--broker-fault-rate", fault_rate,
                 "--broker-fault-seed", str(3 + index), *extra],
                env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            for index, extra in enumerate(worker_extra_args)]
        coordinator = run_cli(["campaign", *CAMPAIGN_ARGS,
                               "--broker", url,
                               "--broker-fault-rate", fault_rate,
                               "--broker-fault-seed", "5",
                               "--lease-timeout", lease_timeout,
                               "--checkpoint", str(checkpoint),
                               "--metrics-out", str(metrics)])
        worker_codes = [worker.wait(timeout=120) for worker in workers]
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.communicate()
        broker.send_signal(signal.SIGTERM)
        try:
            broker_code = broker.wait(timeout=60)
        except subprocess.TimeoutExpired:
            broker.kill()
            broker_code = broker.wait()
        broker_stderr = broker.stderr.read()
        broker.stdout.close()
        broker.stderr.close()
    return SimpleNamespace(coordinator=coordinator,
                           worker_codes=worker_codes,
                           checkpoint=checkpoint, metrics=metrics,
                           queue_dir=queue_dir, broker_code=broker_code,
                           broker_stderr=broker_stderr)


class TestBrokerDrainEndToEnd:
    def test_sigkilled_worker_plus_lossy_network_bit_identical(
            self, tmp_path, sequential):
        # The acceptance scenario: w0 SIGKILLs itself right after its
        # first claim under a short lease, every client (coordinator
        # included) rides a 25 % fault injector, and the drain must
        # still be bit-identical to the sequential oracle.
        outcome = run_broker_campaign(
            tmp_path, [["--fail-after", "1", "--lease", "3"], []],
            lease_timeout="3")
        assert outcome.coordinator.returncode == 0, \
            outcome.coordinator.stderr
        assert outcome.worker_codes[0] == -signal.SIGKILL
        assert outcome.worker_codes[1] == 0
        assert outcome.coordinator.stdout == sequential.stdout
        assert outcome.checkpoint.read_bytes() == sequential.checkpoint_bytes
        assert load_broker_counters(outcome.metrics) == sequential.counters
        assert counter_total(outcome.metrics, "runs_stolen_total") >= 1
        assert counter_total(outcome.metrics, "leases_expired_total") >= 1
        # The network was genuinely lossy end to end: the coordinator's
        # own client had to retry at least once.
        assert counter_total(outcome.metrics,
                             "broker_client_retries_total") >= 1
        # SIGTERM drained the broker gracefully (exit 128+15), and the
        # spool it leaves behind replays as a fully drained campaign.
        assert outcome.broker_code == 128 + signal.SIGTERM, \
            outcome.broker_stderr
        status = run_cli(["status", str(outcome.queue_dir), "--json"])
        assert status.returncode == 0, status.stderr
        import json
        view = json.loads(status.stdout)
        assert view["queue"]["drained"] is True
        assert view["queue"]["depth"] == 0
