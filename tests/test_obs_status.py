"""Campaign aggregation and the ``repro status`` surfaces.

Covers the coordinator-side telemetry plane: heartbeat enrichment and
pruning, the read-only :class:`CampaignAggregator` (including the
merge-idempotence property: refreshing twice with no new writes yields
an identical view), the Prometheus/JSON HTTP endpoint, and the CLI
wiring (``repro status``, ``--log-level``/``--log-json``).
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import build_parser, main, _build_instrumentation
from repro.obs import NULL_INSTRUMENTATION, make_instrumentation
from repro.obs.aggregate import (
    CampaignAggregator,
    render_status,
    serve_status,
)
from repro.obs.spool import TELEMETRY_DIRNAME, TelemetrySpool
from repro.resilience.taskqueue import DurableTaskQueue
from tests.test_obs_metrics import FakeClock

KEYS = [("OP_V", "A9", "A9-P1", 0), ("OP_V", "A9", "A9-P1", 1)]

#: View keys that legitimately change between back-to-back refreshes.
VOLATILE_VIEW_KEYS = ("generated_wall_s", "throughput")


def make_queue(root, clock, identity="cafe0123"):
    queue = DurableTaskQueue(root, identity=identity, clock=clock,
                             fsync=False)
    assert queue.open(create=True)
    return queue


def make_aggregator(root, clock):
    wall = lambda: 1700000000.0 + clock()  # noqa: E731
    return CampaignAggregator(root, clock=clock, wall_clock=wall)


def victim_spool(root, clock, worker="w0"):
    """A worker spool holding pre-kill telemetry: one claim event."""
    obs = make_instrumentation(clock=clock)
    obs.events.bind(worker=worker, campaign="cafe0123")
    obs.events.emit("worker.claim", run_key=KEYS[0], token=1)
    obs.registry.counter("campaign_runs_completed_total").inc(0)
    spool = TelemetrySpool(root / TELEMETRY_DIRNAME, worker,
                           campaign="cafe0123", clock=clock)
    spool.flush(obs)
    return obs, spool


class TestHeartbeatEnrichment:
    def test_heartbeat_carries_pid_run_key_and_token(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.write_worker_heartbeat("w0", ttl_s=10.0, pid=4242,
                                     run_key=KEYS[0], token=3)
        [beat] = queue.worker_heartbeats()
        assert beat.worker == "w0"
        assert beat.pid == 4242
        assert beat.run_key == KEYS[0]
        assert beat.token == 3
        assert beat.live

    def test_idle_heartbeat_has_no_claim_fields(self, tmp_path):
        queue = make_queue(tmp_path / "q", FakeClock())
        queue.write_worker_heartbeat("w0", ttl_s=10.0, pid=1)
        [beat] = queue.worker_heartbeats()
        assert beat.run_key is None
        assert beat.token is None

    def test_stale_and_future_heartbeats_are_pruned(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.write_worker_heartbeat("dead", ttl_s=5.0, pid=1)
        clock.advance(100.0)
        queue.write_worker_heartbeat("alive", ttl_s=5.0, pid=1)
        assert queue.prune_stale_worker_heartbeats() == ["dead"]
        assert queue.live_workers() == ["alive"]
        assert not (queue.workers_dir / "dead.hb").exists()

    def test_coordinator_open_prunes_a_reused_queue_dir(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.write_worker_heartbeat("old", ttl_s=5.0, pid=1)
        clock.advance(100.0)
        reopened = DurableTaskQueue(tmp_path / "q", identity="cafe0123",
                                    clock=clock, fsync=False)
        assert reopened.open(create=True)
        assert reopened.worker_heartbeats() == []

    @pytest.mark.parametrize("body", [
        '{"pid": 1e400, "mono": 0, "ttl": 5}',
        '{"pid": 1, "mono": 0, "ttl": 5, "token": 1e400}',
        '{"pid": 1, "mono": ' + "[" * 100_000 + "]" * 100_000
        + ', "ttl": 5}',
        "[1]",
    ], ids=["pid-overflow", "token-overflow", "deep-nesting", "not-object"])
    def test_undecodable_heartbeat_file_is_ignored(self, tmp_path, body):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock)
        queue.write_worker_heartbeat("w1", ttl_s=10.0, pid=7)
        (queue.workers_dir / "w0.hb").write_text(body, encoding="utf-8")
        assert [beat.worker for beat in queue.worker_heartbeats()] \
            == ["w1"]
        aggregator = make_aggregator(tmp_path, clock)
        assert aggregator.refresh()
        assert [worker["worker"] for worker in aggregator.view().workers] \
            == ["w1"]

    def test_future_stamp_reads_as_dead(self, tmp_path):
        # A heartbeat from before a reboot: CLOCK_MONOTONIC restarted,
        # so the stamp lies far in this boot's future.
        clock = FakeClock()
        clock.advance(500.0)
        queue = make_queue(tmp_path / "q", clock)
        queue.write_worker_heartbeat("prereboot", ttl_s=10.0, pid=1)
        fresh = DurableTaskQueue(tmp_path / "q", clock=FakeClock(),
                                 fsync=False)
        [beat] = fresh.worker_heartbeats()
        assert beat.age_s < -beat.ttl
        assert not beat.live


class TestAggregator:
    def drained_scenario(self, tmp_path):
        """Claim → expire → steal → complete, plus a victim spool."""
        clock = FakeClock()
        queue = make_queue(tmp_path, clock)
        for seq, key in enumerate(KEYS):
            queue.submit_at(seq, key, payload=f"task-{seq}")
        victim_spool(tmp_path, clock, worker="w0")
        queue.claim("w0", lease_s=5.0)  # the victim's doomed claim
        # ttl 2 → at +6s w0 is past ttl*grace and reads as dead.
        queue.write_worker_heartbeat("w0", ttl_s=2.0, pid=1)
        clock.advance(6.0)  # w0 is now silent past its lease
        thief = queue.claim("w1", lease_s=5.0)  # expires + steals seq 0
        queue.write_worker_heartbeat("w1", ttl_s=5.0, pid=1, run_key=thief.key,
                                     token=thief.token)
        queue.complete(thief, payload="done-0")
        second = queue.claim("w1", lease_s=5.0)
        queue.complete(second, payload="done-1")
        queue.close()
        return clock, queue

    def test_view_reports_liveness_depth_and_the_steal(self, tmp_path):
        clock, _ = self.drained_scenario(tmp_path)
        aggregator = make_aggregator(tmp_path, clock)
        assert aggregator.refresh()
        view = aggregator.view()
        assert view.campaign == "cafe0123"
        assert view.queue["depth"] == 0
        assert view.queue["completed"] == 2
        assert view.queue["stolen"] == 1
        assert view.queue["expired"] == 1
        assert view.queue["drained"] is True
        workers = {w["worker"]: w for w in view.workers}
        assert workers["w0"]["live"] is False
        assert workers["w1"]["live"] is True
        assert workers["w1"]["run_key"] == list(KEYS[0])
        names = [event["name"] for event in view.events]
        assert "queue.run_stolen" in names
        assert "queue.lease_expired" in names
        assert "queue.sealed" in names

    def test_victim_pre_kill_telemetry_is_attributed(self, tmp_path):
        clock, _ = self.drained_scenario(tmp_path)
        aggregator = make_aggregator(tmp_path, clock)
        aggregator.refresh()
        view = aggregator.view()
        claims = [event for event in view.events
                  if event["name"] == "worker.claim"]
        assert claims and claims[0]["worker"] == "w0"
        assert claims[0]["run_key"] == list(KEYS[0])
        assert view.telemetry["spools"] == 1

    def test_refresh_without_new_writes_is_idempotent(self, tmp_path):
        clock, _ = self.drained_scenario(tmp_path)
        aggregator = make_aggregator(tmp_path, clock)
        aggregator.refresh()
        first = aggregator.view(recent_events=100).to_dict()
        aggregator.refresh()  # no new spool bytes, no new queue events
        second = aggregator.view(recent_events=100).to_dict()
        for key in VOLATILE_VIEW_KEYS:
            first.pop(key), second.pop(key)
        assert first == second

    def test_two_aggregators_agree(self, tmp_path):
        clock, _ = self.drained_scenario(tmp_path)
        one, two = (make_aggregator(tmp_path, clock) for _ in range(2))
        one.refresh(), two.refresh()
        assert one.view().queue == two.view().queue
        assert len(one.all_events()) == len(two.all_events())

    def test_merged_counters_union_worker_sessions(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock)
        queue.submit_at(0, KEYS[0], payload="t")
        for worker, runs in (("w0", 2), ("w1", 3)):
            obs = make_instrumentation(clock=clock)
            obs.registry.counter("campaign_runs_completed_total").inc(runs)
            TelemetrySpool(tmp_path / TELEMETRY_DIRNAME, worker,
                           clock=clock).flush(obs)
        aggregator = make_aggregator(tmp_path, clock)
        aggregator.refresh()
        merged = aggregator.merged_registry()
        assert merged.counter("campaign_runs_completed_total").total() == 5
        assert aggregator.view().counters[
            "campaign_runs_completed_total"] == 5

    def test_prometheus_export_includes_queue_gauges(self, tmp_path):
        clock, _ = self.drained_scenario(tmp_path)
        aggregator = make_aggregator(tmp_path, clock)
        aggregator.refresh()
        text = aggregator.to_prometheus()
        assert "queue_depth 0" in text
        assert "runs_stolen_total 1" in text
        assert "workers_live 1" in text

    def test_render_status_mentions_workers_and_steals(self, tmp_path):
        clock, _ = self.drained_scenario(tmp_path)
        aggregator = make_aggregator(tmp_path, clock)
        aggregator.refresh()
        text = render_status(aggregator.view())
        assert "w0" in text and "dead" in text
        assert "w1" in text and "live" in text
        assert "1 runs stolen" in text
        assert "queue.run_stolen" in text

    def test_refresh_returns_false_until_the_spool_exists(self, tmp_path):
        aggregator = make_aggregator(tmp_path / "nothing", FakeClock())
        assert aggregator.refresh() is False


class TestHTTPSurface:
    def serve(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock)
        queue.submit_at(0, KEYS[0], payload="t")
        aggregator = make_aggregator(tmp_path, clock)
        server = serve_status(aggregator, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        return server, f"http://{host}:{port}"

    def fetch(self, url):
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")

    def test_status_and_metrics_endpoints(self, tmp_path):
        server, base = self.serve(tmp_path)
        try:
            status, body = self.fetch(base + "/status")
            assert status == 200
            payload = json.loads(body)
            assert payload["opened"] is True
            assert payload["queue"]["submitted"] == 1
            status, text = self.fetch(base + "/metrics")
            assert status == 200
            assert "queue_depth 1" in text
            try:
                self.fetch(base + "/nope")
                raise AssertionError("expected 404")
            except urllib.error.HTTPError as error:
                assert error.code == 404
        finally:
            server.shutdown()
            server.server_close()

    def test_server_is_hardened_against_stalled_clients(self, tmp_path):
        # Regression: serve_status used to return a stock
        # ThreadingHTTPServer whose non-daemon handler threads made
        # server_close() block forever on a client that connected and
        # then went silent, and whose handlers had no socket timeout.
        clock = FakeClock()
        make_queue(tmp_path, clock)
        aggregator = make_aggregator(tmp_path, clock)
        server = serve_status(aggregator, port=0, request_timeout_s=1.0)
        assert type(server).daemon_threads is True
        assert server.RequestHandlerClass.timeout == 1.0
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        # A client that connects and never sends a request: the
        # per-request timeout plus daemon threads must let shutdown +
        # server_close return promptly anyway.
        stalled = socket.create_connection((host, port), timeout=5)
        try:
            self.fetch(f"http://{host}:{port}/status")  # still serves
            start = time.monotonic()
            server.shutdown()
            server.server_close()
            assert time.monotonic() - start < 10.0
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            stalled.close()


class TestStatusCLI:
    def populated_queue(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.submit_at(0, KEYS[0], payload="t")
        victim_spool(tmp_path / "q", clock)
        return tmp_path / "q"

    def test_status_json_prints_the_view(self, tmp_path, capsys):
        root = self.populated_queue(tmp_path)
        assert main(["status", str(root), "--json"]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["queue"]["submitted"] == 1
        assert view["campaign"] == "cafe0123"
        assert any(event["name"] == "worker.claim"
                   for event in view["events"])

    def test_status_human_rendering(self, tmp_path, capsys):
        root = self.populated_queue(tmp_path)
        assert main(["status", str(root)]) == 0
        out = capsys.readouterr().out
        assert "campaign cafe0123" in out
        assert "1 submitted" in out

    def test_status_on_a_missing_queue_dir_fails(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "absent")]) == 1
        assert "no task-queue spool" in capsys.readouterr().err


class TestLogFlags:
    def parse(self, argv):
        return build_parser().parse_args(argv)

    def test_campaign_worker_profile_accept_log_flags(self):
        for argv in (["campaign", "--log-level", "warning"],
                     ["worker", "--broker", "http://127.0.0.1:1",
                      "--log-json"],
                     ["profile", "--log-level", "debug"]):
            args = self.parse(argv)
            assert hasattr(args, "log_level") and hasattr(args, "log_json")

    def test_log_flags_alone_build_a_live_bundle_with_a_sink(self):
        import logging

        from repro.obs.events import detach_logging_bridge

        args = self.parse(["campaign", "--log-level", "warning"])
        obs = _build_instrumentation(args)
        try:
            assert obs is not NULL_INSTRUMENTATION
            assert obs.events.enabled
            assert obs.events._sinks  # the stderr mirror is attached
            assert logging.getLogger("repro").propagate is False
        finally:
            [handler] = logging.getLogger("repro").handlers
            detach_logging_bridge(handler)

    def test_no_flags_still_mean_no_instrumentation(self):
        args = self.parse(["campaign"])
        assert _build_instrumentation(args) is NULL_INSTRUMENTATION
