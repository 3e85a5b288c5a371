"""Cross-host campaign broker: protocol, idempotency and client tests.

Three layers, no sockets except where sockets are the point:

* ``CampaignBroker.handle`` is pure request → response, so the verb
  protocol (attach/submit/seal/claim/heartbeat/complete/sync, payloads
  in the spool, drain mode, idempotency-key replay, the decoding of
  every request field) is tested directly against framed bodies.
* :class:`BrokerClient` is tested with an injected ``send`` that talks
  straight to ``handle`` — retries, CRC re-framing, the unavailability
  latch and the exactly-once guarantees under lost responses all
  exercise the production retry path with zero network.
* One smoke class runs the real ``serve_broker`` HTTP layer end to end
  and pins the hardening attributes (daemon handler threads, bounded
  per-request socket timeout).
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.broker import (
    BROKER_PROTOCOL_VERSION,
    CampaignBroker,
    serve_broker,
)
from repro.campaign.broker_client import (
    BrokerClient,
    BrokerError,
    BrokerTransportError,
    BrokerUnavailableError,
    HTTPTransport,
    default_broker_retry,
)
from repro.campaign.scheduler import (
    BrokerScheduler,
    PendingRun,
    decode_payload,
    encode_payload,
)
from repro.campaign.worker import QueueWorker, WorkerConfig
from repro.cli import build_parser, main
from repro.obs.aggregate import CampaignAggregator, serve_status
from repro.obs.httpd import serve_http
from repro.resilience.checkpoint import CheckpointMismatchError
from repro.resilience.framing import frame_line, frame_object, load_framed_line
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervision import CircuitBreaker, CircuitBreakerOpen
from repro.resilience.taskqueue import Claim, LeaseState, replay_line
from tests.test_obs_metrics import FakeClock
from tests.test_taskqueue import write_version_1_spool


def make_broker(tmp_path, clock=None, **kwargs):
    kwargs.setdefault("fsync", False)
    return CampaignBroker(tmp_path / "qdir",
                          clock=clock if clock is not None else FakeClock(),
                          **kwargs)


def post(broker, path, obj):
    """One framed verb against ``handle``; returns (status, decoded)."""
    status, _ctype, payload = broker.handle("POST", path, frame_object(obj))
    return status, load_framed_line(payload)


def attach(broker, identity="camp-1", lease_s=30.0):
    status, response = post(broker, "/v1/attach", {
        "create": True, "identity": identity, "lease_s": lease_s})
    assert status == 200 and response["ready"]
    return response


def submit(broker, key, text):
    status, response = post(broker, "/v1/submit",
                            {"key": list(key), "payload": text})
    assert status == 200
    return response["seq"]


def replay_spool(broker) -> LeaseState:
    """A fresh replay of everything the broker wrote to its spool."""
    state = LeaseState()
    spool = broker.queue_dir / "events.spool"
    for line in spool.read_bytes().splitlines():
        assert replay_line(state, line) is not None
    return state


def direct_send(broker):
    """A client ``send`` wired straight into ``CampaignBroker.handle``."""
    def send(method, path, body):
        status, _ctype, payload = broker.handle(method, path, body)
        return status, payload
    return send


def make_client(broker_or_send, **kwargs):
    send = broker_or_send if callable(broker_or_send) \
        else direct_send(broker_or_send)
    kwargs.setdefault("retry", RetryPolicy(max_retries=4,
                                           backoff_base_s=0.0))
    kwargs.setdefault("sleep", lambda seconds: None)
    return BrokerClient("http://test-broker", send=send, **kwargs)


class TestFraming:
    def test_roundtrip(self):
        body = frame_object({"ev": "claim", "seq": 3})
        assert load_framed_line(body) == {"ev": "claim", "seq": 3}

    def test_flipped_byte_fails_crc(self):
        body = bytearray(frame_object({"seq": 3}))
        body[-3] ^= 0x20
        assert load_framed_line(bytes(body)) is None

    def test_non_dict_and_garbage_rejected(self):
        framed_list = frame_line(b"[1, 2]") + b"\n"
        assert load_framed_line(framed_list) is None
        assert load_framed_line(b"") is None
        assert load_framed_line(b"\xff\xfe not utf8 \xff") is None
        assert load_framed_line(b"deadbeef not-json") is None


#: Framed bodies whose CRC is fine but whose JSON cannot be decoded:
#: an integer past the int digit limit, and nesting past the
#: recursion limit.
HUGE_INT_BODY = frame_line(b'{"seq": ' + b"1" * 5000 + b"}") + b"\n"
DEEP_BODY = frame_line(b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}") \
    + b"\n"

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8)

#: Payload text a CRC frame may carry: JSON of any shape, plus the
#: shapes ``json.loads`` rejects with something other than
#: ``JSONDecodeError``.
_FRAMED_PAYLOADS = st.one_of(
    _JSON.map(json.dumps),
    st.integers(4_301, 20_000).map(lambda digits: "1" * digits),
    st.integers(1_000, 200_000).map(lambda depth: "[" * depth + "]" * depth),
    st.text(max_size=40))


class TestPayloadDurability:
    """A payload and its event are one fsynced line: with ``fsync`` a
    submit or complete syncs the spool append and nothing else."""

    @staticmethod
    def recording_fsync(monkeypatch) -> list[int]:
        synced: list[int] = []
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(os.fstat(fd).st_ino))
        return synced

    def test_payload_and_its_event_are_one_synced_append(self, tmp_path,
                                                         monkeypatch):
        broker = make_broker(tmp_path, fsync=True)
        attach(broker)
        synced = self.recording_fsync(monkeypatch)
        submit(broker, ("r0",), "task-r0")
        post(broker, "/v1/claim", {"worker": "w0", "lease_s": 5.0})
        post(broker, "/v1/complete", {"seq": 0, "token": 1, "worker": "w0",
                                      "payload": "outcome-r0"})
        spool = broker.queue_dir / "events.spool"
        assert synced == [spool.stat().st_ino] * 3  # submit, claim, complete
        state = replay_spool(broker)
        assert (state.tasks[0].payload, state.tasks[0].outcome) \
            == ("task-r0", "outcome-r0")

    def test_no_fsync_broker_syncs_nothing(self, tmp_path, monkeypatch):
        broker = make_broker(tmp_path)  # fsync=False
        attach(broker)
        synced = self.recording_fsync(monkeypatch)
        submit(broker, ("r0",), "task-r0")
        assert synced == []


class TestFramingDecodesOrNone:
    """``load_framed_line`` answers a dict or ``None``, for any body."""

    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=200) | _FRAMED_PAYLOADS.map(
        lambda payload: frame_line(payload.encode()) + b"\n"))
    def test_arbitrary_bytes_and_framed_json(self, body):
        decoded = load_framed_line(body)
        assert decoded is None or isinstance(decoded, dict)

    @pytest.mark.parametrize("body", [HUGE_INT_BODY, DEEP_BODY],
                             ids=["int-digit-limit", "recursion-limit"])
    def test_undecodable_crc_valid_bodies(self, tmp_path, body):
        assert load_framed_line(body) is None
        broker = make_broker(tmp_path)
        status, _ctype, payload = broker.handle("POST", "/v1/claim", body)
        assert status == 400  # a malformed request, not an internal error
        assert "not a CRC-framed JSON object" in \
            load_framed_line(payload)["error"]

    @pytest.mark.parametrize("body", [HUGE_INT_BODY, DEEP_BODY],
                             ids=["int-digit-limit", "recursion-limit"])
    def test_client_retries_an_undecodable_response(self, tmp_path, body):
        inner = direct_send(make_broker(tmp_path))
        garbled = {"left": 1}

        def send(method, path, request):
            status, payload = inner(method, path, request)
            if garbled["left"]:
                garbled["left"] -= 1
                return status, body
            return status, payload

        client = make_client(send, role="coordinator", identity="c")
        assert client.open(create=True)  # retried like a CRC failure
        assert garbled["left"] == 0


class TestBrokerProtocol:
    def test_not_ready_before_coordinator_attaches(self, tmp_path):
        broker = make_broker(tmp_path)
        status, response = post(broker, "/v1/submit",
                                {"key": ["k"], "payload": "payload"})
        assert status == 409
        status, response = post(broker, "/v1/claim",
                                {"worker": "w0", "lease_s": 5.0})
        assert status == 200
        assert response["claim"] is None and response["ready"] is False
        status, _ctype, payload = broker.handle("GET", "/v1/status", b"")
        assert load_framed_line(payload)["ready"] is False

    def test_attach_create_then_worker_attach(self, tmp_path):
        broker = make_broker(tmp_path)
        response = attach(broker, identity="camp-9", lease_s=12.0)
        assert response["identity"] == "camp-9"
        assert response["lease_s"] == 12.0
        assert response["protocol"] == BROKER_PROTOCOL_VERSION
        # A worker attach (no create, no identity) sees the same spool.
        status, response = post(broker, "/v1/attach", {"create": False})
        assert status == 200 and response["identity"] == "camp-9"

    def test_identity_mismatch_is_409(self, tmp_path):
        broker = make_broker(tmp_path)
        attach(broker, identity="camp-a")
        status, response = post(broker, "/v1/attach",
                                {"create": True, "identity": "camp-b"})
        assert status == 409
        assert response["code"] == "identity_mismatch"
        assert "different campaign" in response["error"]

    def test_submit_spools_the_payload(self, tmp_path):
        broker = make_broker(tmp_path)
        attach(broker)
        submit(broker, ("k",), "task-payload")
        assert replay_spool(broker).tasks[0].payload == "task-payload"
        assert {entry.name for entry in broker.queue_dir.iterdir()} \
            == {"events.spool", "queue.lock", "workers"}

    def test_submit_is_idempotent_across_broker_restart(self, tmp_path):
        broker = make_broker(tmp_path)
        attach(broker)
        assert submit(broker, ("a",), "pa") == 0
        assert submit(broker, ("b",), "pb") == 1
        assert submit(broker, ("a",), "pa") == 0  # same key, same seq
        # A restarted broker process replays the spool and keeps
        # dispensing stable seqs for known keys and fresh ones after.
        reborn = make_broker(tmp_path)
        attach(reborn)
        assert submit(reborn, ("b",), "pb") == 1
        assert submit(reborn, ("c",), "pc") == 2

    def test_claim_heartbeat_complete_lifecycle(self, tmp_path):
        clock = FakeClock()
        broker = make_broker(tmp_path, clock=clock)
        attach(broker)
        submit(broker, ("r0",), "task-payload")
        post(broker, "/v1/seal", {})
        status, response = post(broker, "/v1/claim",
                                {"worker": "w0", "lease_s": 5.0})
        claim = response["claim"]
        assert claim["seq"] == 0 and claim["token"] == 1
        assert claim["key"] == ["r0"]
        assert claim["payload"] == "task-payload"
        status, response = post(broker, "/v1/heartbeat", {
            "seq": 0, "token": 1, "worker": "w0", "lease_s": 5.0})
        assert response["ok"] is True
        status, response = post(broker, "/v1/complete", {
            "seq": 0, "token": 1, "worker": "w0",
            "payload": "outcome-bytes"})
        assert response["ok"] is True
        assert replay_spool(broker).tasks[0].outcome == "outcome-bytes"
        assert broker._queue.state.tasks[0].outcome is None  # dropped
        status, _ctype, payload = broker.handle("GET", "/v1/status", b"")
        final = load_framed_line(payload)
        assert final["drained"] is True and final["depth"] == 0
        assert final["completed"] == 1 and final["fenced"] == 0

    def test_claim_idempotency_key_replays_verbatim(self, tmp_path):
        broker = make_broker(tmp_path)
        attach(broker)
        submit(broker, ("a",), "pa")
        submit(broker, ("b",), "pb")
        first = broker.handle("POST", "/v1/claim", frame_object(
            {"worker": "w0", "lease_s": 5.0, "idem": "w0-1"}))
        replay = broker.handle("POST", "/v1/claim", frame_object(
            {"worker": "w0", "lease_s": 5.0, "idem": "w0-1"}))
        assert replay == first  # byte-identical cached response
        assert load_framed_line(first[2])["claim"]["seq"] == 0
        # The replay leased nothing: a fresh idempotency key gets the
        # SECOND task, proving the duplicate never consumed one.
        status, response = post(broker, "/v1/claim", {
            "worker": "w0", "lease_s": 5.0, "idem": "w0-2"})
        assert response["claim"]["seq"] == 1

    def test_complete_replays_from_state_after_cache_loss(self, tmp_path):
        # Even if the idempotency cache forgot the key (eviction,
        # broker restart), a retried complete for a lease that already
        # committed must acknowledge, not fence.
        broker = make_broker(tmp_path)
        attach(broker)
        submit(broker, ("a",), "pa")
        status, response = post(broker, "/v1/claim",
                                {"worker": "w0", "lease_s": 5.0})
        request = {"seq": 0, "token": 1, "worker": "w0", "payload": "done"}
        _, first = post(broker, "/v1/complete", {**request, "idem": "k-1"})
        assert first["ok"] is True
        _, retried = post(broker, "/v1/complete", {**request, "idem": "k-2"})
        assert retried["ok"] is True
        status, _ctype, payload = broker.handle("GET", "/v1/status", b"")
        final = load_framed_line(payload)
        assert final["completed"] == 1 and final["fenced"] == 0

    def test_non_finite_lease_timeout_keeps_the_campaign_identity(
            self, tmp_path):
        # A NaN lease in the spool header made its own replay count the
        # header invalid, so the queue lost its identity and a
        # different campaign could attach.
        broker = make_broker(tmp_path)
        for lease in (math.nan, math.inf):
            status, response = post(broker, "/v1/attach", {
                "create": True, "identity": "camp-a", "lease_s": lease})
            assert status == 400 and "malformed" in response["error"]
        assert not (broker.queue_dir / "events.spool").exists()
        attach(broker, identity="camp-a")
        status, response = post(broker, "/v1/attach",
                                {"create": True, "identity": "camp-b"})
        assert status == 409 and response["code"] == "identity_mismatch"
        assert replay_spool(broker).identity == "camp-a"

    def test_non_finite_claim_lease_leases_nothing(self, tmp_path):
        # An infinite claim lease used to return a claim whose spool
        # event replay rejected, leaving the task unleased for the next
        # worker to take at once.
        broker = make_broker(tmp_path)
        attach(broker)
        submit(broker, ("a",), "pa")
        status, _response = post(broker, "/v1/claim",
                                 {"worker": "w0", "lease_s": math.inf})
        assert status == 400
        _, response = post(broker, "/v1/claim",
                           {"worker": "w1", "lease_s": 5.0})
        assert response["claim"]["token"] == 1
        state = replay_spool(broker)
        assert state.tasks[0].active and state.tasks[0].worker == "w1"
        assert state.stats.invalid == 0

    def test_cli_rejects_non_finite_and_non_positive_leases(self, capsys):
        parser = build_parser()
        for value in ("nan", "inf", "-inf", "0", "-5", "soon"):
            with pytest.raises(SystemExit):
                parser.parse_args(["campaign", "--broker", "http://b:1",
                                   "--lease-timeout", value])
            with pytest.raises(SystemExit):
                parser.parse_args(["worker", "--broker", "http://b:1",
                                   "--lease", value])
        assert "--lease" in capsys.readouterr().err
        args = parser.parse_args(["worker", "--broker", "http://b:1",
                                  "--lease", "2.5"])
        assert args.lease == 2.5

    def test_malformed_requests_are_400(self, tmp_path):
        broker = make_broker(tmp_path)
        attach(broker)
        status, _ctype, _payload = broker.handle(
            "POST", "/v1/claim", b"garbage that is not framed")
        assert status == 400
        status, response = post(broker, "/v1/claim", {"worker": "w0"})
        assert status == 400  # lease_s missing
        assert "malformed request" in response["error"]

    def test_unknown_paths_and_methods(self, tmp_path):
        broker = make_broker(tmp_path)
        assert broker.handle("GET", "/v1/nope", b"")[0] == 404
        assert post(broker, "/v1/nope", {})[0] == 404
        assert broker.handle("DELETE", "/v1/claim", b"")[0] == 405
        # Payloads ride inside the verbs and the spool: no raw artifact
        # routes, no outcome read.
        digest = "0" * 64
        assert broker.handle("GET", f"/v1/artifacts/{digest}", b"")[0] == 404
        assert broker.handle("PUT", f"/v1/artifacts/{digest}",
                             b"blob")[0] == 405
        assert post(broker, "/v1/outcome", {"digest": digest})[0] == 404

    def test_drain_mode_refuses_mutations_keeps_reads(self, tmp_path):
        broker = make_broker(tmp_path)
        attach(broker)
        broker.begin_drain()
        broker.begin_drain()  # idempotent
        status, _response = post(broker, "/v1/submit",
                                 {"key": ["a"], "payload": "pa"})
        assert status == 503
        assert post(broker, "/v1/claim",
                    {"worker": "w", "lease_s": 5.0})[0] == 503
        # Reads and the coordinator's mirror sync stay available.
        assert post(broker, "/v1/sync", {"offset": 0})[0] == 200
        status, _ctype, payload = broker.handle("GET", "/v1/status", b"")
        assert status == 200 and load_framed_line(payload)["draining"] is True
        assert replay_spool(broker).stats.submitted == 0  # nothing spooled

    def test_worker_heartbeat_records_the_workers_pid(self, tmp_path):
        broker = make_broker(tmp_path)
        attach(broker)
        status, response = post(broker, "/v1/worker_heartbeat", {
            "worker": "w0", "ttl_s": 30.0, "pid": 4242,
            "run_key": ["r0"], "token": 1})
        assert status == 200 and response["ok"] is True
        [beat] = broker._queue.worker_heartbeats()
        assert (beat.worker, beat.pid, beat.run_key, beat.token) \
            == ("w0", 4242, ("r0",), 1)

    def test_metrics_endpoint_is_prometheus_text(self, tmp_path):
        broker = make_broker(tmp_path)
        attach(broker)
        status, content_type, payload = broker.handle(
            "GET", "/v1/metrics", b"")
        assert status == 200 and content_type.startswith("text/plain")
        assert b"broker_requests_total" in payload


#: JSON text for one request field: the non-finite and overflowing
#: numbers ``json.loads`` accepts, plus JSON of any shape.
_FIELD_TEXT = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                     "1" * 400, "-" + "9" * 4000, "0", "-1", "true",
                     "null", '""', '"w/../x"', '"../../events.spool"']),
    _JSON.map(json.dumps))

#: Every verb's valid request, against the queue ``fuzz_broker``
#: builds: seq 0 is leased by w0 (token 1), seq 1 is complete with
#: outcome "done".
_VERB_REQUESTS = {
    "/v1/attach": {"create": True, "identity": "camp", "lease_s": 30.0},
    "/v1/submit": {"key": ["r9"], "payload": "p9"},
    "/v1/seal": {"extra": 0},
    "/v1/claim": {"worker": "w1", "lease_s": 30.0, "idem": "i-1"},
    "/v1/heartbeat": {"seq": 0, "token": 1, "worker": "w0",
                      "lease_s": 30.0},
    "/v1/complete": {"seq": 0, "token": 1, "worker": "w0",
                     "payload": "o", "idem": "i-2"},
    "/v1/worker_heartbeat": {"worker": "w0", "ttl_s": 30.0, "pid": 7,
                             "run_key": ["r0"], "token": 1},
    "/v1/sync": {"offset": 0},
}

_VERB_FIELDS = [(path, field) for path, request in _VERB_REQUESTS.items()
                for field in request]


def fuzz_broker(root, path):
    """A broker whose queue has every state the verbs act on (the
    attach case starts from an empty directory, so its header is the
    one written)."""
    broker = CampaignBroker(root, clock=FakeClock(), fsync=False)
    if path == "/v1/attach":
        return broker
    attach(broker, identity="camp")
    for key in ("r0", "r1", "r2"):
        submit(broker, (key,), f"task-{key}")
    post(broker, "/v1/claim", {"worker": "w0", "lease_s": 30.0})
    post(broker, "/v1/claim", {"worker": "w0", "lease_s": 30.0})
    post(broker, "/v1/complete", {"seq": 1, "token": 1, "worker": "w0",
                                  "payload": "done"})
    return broker


def with_field(request, field, text):
    """The framed request with ``field`` set to the JSON ``text``
    (``None``: the field is left out)."""
    rest = json.dumps({key: value for key, value in request.items()
                       if key != field})
    if text is None:
        return frame_line(rest.encode()) + b"\n"
    inner = rest[1:-1]
    body = "{" + json.dumps(field) + ": " + text \
        + (", " + inner if inner else "") + "}"
    return frame_line(body.encode()) + b"\n"


class TestRequestFieldsDecodeOr400:
    """Any JSON in any field of any verb's request: the broker answers
    200, 400 or 409 — never 500 — and its spool still replays clean."""

    @settings(max_examples=400, deadline=None)
    @given(verb_field=st.sampled_from(_VERB_FIELDS),
           text=st.none() | _FIELD_TEXT)
    def test_any_json_in_any_field(self, verb_field, text):
        path, field = verb_field
        with tempfile.TemporaryDirectory() as root:
            broker = fuzz_broker(os.path.join(root, "q"), path)
            status, _ctype, payload = broker.handle(
                "POST", path, with_field(_VERB_REQUESTS[path], field, text))
            assert status in (200, 400, 409), load_framed_line(payload)
            assert load_framed_line(payload) is not None
            if (broker.queue_dir / "events.spool").exists():
                state = replay_spool(broker)
                assert state.stats.invalid == 0
                if path != "/v1/attach":
                    assert state.identity == "camp"
            # Nothing written beside the queue directory, nor outside
            # its own layout (a refused attach creates nothing at all).
            assert set(os.listdir(root)) <= {"q"}
            if broker.queue_dir.exists():
                assert {entry.name for entry
                        in broker.queue_dir.iterdir()} \
                    <= {"events.spool", "queue.lock", "workers"}

    @pytest.mark.parametrize("path", sorted(_VERB_REQUESTS))
    def test_the_valid_requests_succeed(self, tmp_path, path):
        broker = fuzz_broker(tmp_path / "q", path)
        status, _ctype, payload = broker.handle(
            "POST", path, frame_object(_VERB_REQUESTS[path]))
        assert status == 200, load_framed_line(payload)


#: The four durations the verbs take, as (verb path, field).
_DURATION_FIELDS = [("/v1/attach", "lease_s"), ("/v1/claim", "lease_s"),
                    ("/v1/heartbeat", "lease_s"),
                    ("/v1/worker_heartbeat", "ttl_s")]


class TestDurationsArePositive:
    """A lease or ttl of 0 s or less is a 400 that appends nothing: a
    claim's lease would be born expired (stolen at once), an attach's
    would be advertised to every worker in the spool header."""

    @pytest.mark.parametrize("value", [0, -5])
    @pytest.mark.parametrize("path_field", _DURATION_FIELDS,
                             ids=lambda pair: "".join(pair))
    def test_non_positive_duration_is_400(self, tmp_path, path_field,
                                          value):
        path, field = path_field
        broker = fuzz_broker(tmp_path / "q", path)
        spool = broker.queue_dir / "events.spool"
        workers = broker.queue_dir / "workers"

        def on_disk():
            return (spool.read_bytes() if spool.exists() else None,
                    sorted(workers.iterdir()) if workers.exists() else [])

        before = on_disk()
        status, response = post(broker, path,
                                {**_VERB_REQUESTS[path], field: value})
        assert status == 400 and "malformed" in response["error"]
        assert on_disk() == before


#: The fields of a status snapshot (stapled onto attach, submit, seal
#: and claim answers, and the ``status`` of a sync answer).
_SNAPSHOT_FIELDS = ("ready", "protocol", "now", "draining", "identity",
                    "lease_s", "closed", "total", "submitted", "completed",
                    "depth", "active_leases", "expired", "stolen", "fenced",
                    "drained", "live_workers")

#: Every field of every answer the client decodes, as (verb path,
#: field path): a nested path names a field of the claim block or of
#: the sync answer's status snapshot.
_ANSWER_FIELDS = [
    *[(path, (name,)) for path in ("/v1/attach", "/v1/submit", "/v1/seal",
                                   "/v1/claim")
      for name in _SNAPSHOT_FIELDS],
    ("/v1/submit", ("seq",)),
    ("/v1/claim", ("claim",)),
    *[("/v1/claim", ("claim", name))
      for name in ("seq", "token", "worker", "key", "payload")],
    ("/v1/heartbeat", ("ok",)), ("/v1/heartbeat", ("now",)),
    ("/v1/complete", ("ok",)),
    ("/v1/sync", ("events",)), ("/v1/sync", ("next_offset",)),
    ("/v1/sync", ("status",)),
    *[("/v1/sync", ("status", name)) for name in _SNAPSHOT_FIELDS],
]


def with_answer_field(payload, field_path, text):
    """A 200 answer with the field at ``field_path`` set to the JSON
    ``text`` (``None``: left out), re-framed under a valid CRC."""
    answer = load_framed_line(payload)
    *parents, name = field_path
    target = answer
    for parent in parents:
        target = target.get(parent)
        if not isinstance(target, dict):
            return payload  # no such block in this answer
    target.pop(name, None)
    if text is None:
        return frame_object(answer)
    target[name] = "\0field\0"
    body = json.dumps(answer).replace(json.dumps("\0field\0"), text)
    return frame_line(body.encode()) + b"\n"


def client_lifecycle(send) -> dict:
    """Every answer-decoding client verb once, in a campaign's order;
    returns what each decoded (heartbeat and complete need a claim)."""
    coordinator = make_client(send, role="coordinator", identity="camp",
                              default_lease_s=30.0)
    worker = make_client(send, role="worker", worker_id="w0")
    seen = {"attach": coordinator.open(create=True),
            "submit": coordinator.submit(("r0",), "task")}
    coordinator.close()
    seen["worker attach"] = worker.open()
    seen["claim"] = claim = worker.claim("w0", lease_s=30.0)
    if claim is not None:
        seen["heartbeat"] = worker.heartbeat(claim, lease_s=30.0)
        seen["complete"] = worker.complete(claim, "done")
    coordinator.expire_overdue()
    seen["outcome"] = coordinator.take_completion(0)
    return seen


class TestAnswersDecodeOrBrokerError:
    """Any JSON in any field of any answer the client reads: the verb
    decodes it or raises from the client's taxonomy."""

    @settings(max_examples=300, deadline=None)
    @given(path_field=st.sampled_from(_ANSWER_FIELDS),
           text=st.none() | _FIELD_TEXT)
    def test_any_json_in_any_answer_field(self, path_field, text):
        path, field_path = path_field
        with tempfile.TemporaryDirectory() as root:
            inner = direct_send(CampaignBroker(
                os.path.join(root, "q"), clock=FakeClock(), fsync=False))

            def send(method, request_path, body):
                status, payload = inner(method, request_path, body)
                if request_path == path and status == 200:
                    payload = with_answer_field(payload, field_path, text)
                return status, payload

            try:
                client_lifecycle(send)
            except (BrokerError, BrokerUnavailableError,
                    CheckpointMismatchError):
                pass

    def test_the_valid_answers_decode(self, tmp_path):
        assert client_lifecycle(direct_send(make_broker(tmp_path))) == {
            "attach": True, "submit": 0, "worker attach": True,
            "claim": Claim(seq=0, token=1, worker="w0", key=("r0",),
                           payload="task"),
            "heartbeat": True, "complete": True, "outcome": "done"}

    @pytest.mark.parametrize("protocol", [2, 4, "3", None, True])
    def test_open_refuses_another_protocol(self, tmp_path, protocol):
        inner = direct_send(make_broker(tmp_path))

        def send(method, path, body):
            status, payload = inner(method, path, body)
            if path == "/v1/attach":
                payload = with_answer_field(payload, ("protocol",),
                                            json.dumps(protocol))
            return status, payload

        client = make_client(send, role="coordinator", identity="camp")
        with pytest.raises(BrokerError, match=f"protocol {protocol!r}.*"
                           f"protocol {BROKER_PROTOCOL_VERSION}"):
            client.open(create=True)


class TestBrokerClient:
    def test_end_to_end_in_process_drain(self, tmp_path):
        broker = make_broker(tmp_path)
        coordinator = make_client(broker, role="coordinator",
                                  identity="camp-1", default_lease_s=20.0)
        assert coordinator.open(create=True)
        for index in range(4):
            assert coordinator.submit((f"r{index}",),
                                      f"payload-{index}") == index
        coordinator.close()
        worker = make_client(broker, role="worker", worker_id="w0")
        assert worker.open()
        assert worker.state.default_lease_s == 20.0
        drained = 0
        while True:
            claim = worker.claim("w0", lease_s=20.0)
            if claim is None:
                break
            assert claim.payload == f"payload-{claim.seq}"
            assert worker.heartbeat(claim, lease_s=20.0)
            assert worker.complete(claim, f"outcome-{claim.seq}")
            drained += 1
        worker.write_worker_heartbeat("w0", ttl_s=30.0)
        assert drained == 4
        assert worker.state.drained()
        coordinator.expire_overdue()  # pumps the mirror sync
        assert coordinator.state.drained()
        assert coordinator.live_workers() == ["w0"]
        assert all(task.outcome is None  # the broker keeps none
                   for task in broker._queue.state.tasks.values())

        def no_request(method, path, body):
            raise AssertionError(f"take_completion sent {method} {path}")

        coordinator.send = no_request  # the mirror holds every outcome
        for index in range(4):
            assert coordinator.take_completion(index) == f"outcome-{index}"
            assert coordinator.take_completion(index) is None  # taken once
        kinds = [kind for kind, _seq, _worker
                 in coordinator.drain_dispositions()]
        assert kinds.count("complete") == 4
        assert kinds.count("claim") == 4

    def test_retries_through_503s(self, tmp_path):
        broker = make_broker(tmp_path)
        inner = direct_send(broker)
        failures = {"left": 2}

        def flaky(method, path, body):
            if failures["left"] > 0:
                failures["left"] -= 1
                return 503, b"lb has no backend"
            return inner(method, path, body)

        client = make_client(flaky, role="coordinator", identity="c")
        assert client.open(create=True)
        assert failures["left"] == 0

    def test_lost_claim_response_replays_not_reclaims(self, tmp_path):
        # THE exactly-once hazard: the broker commits the claim, the
        # response dies on the wire, the client retries.  The reused
        # idempotency key must hand back the same claim, leaving the
        # other task unleased.
        broker = make_broker(tmp_path)
        attach(broker)
        submit(broker, ("a",), "pa")
        submit(broker, ("b",), "pb")
        inner = direct_send(broker)
        drop = {"armed": True}

        def lossy(method, path, body):
            status, payload = inner(method, path, body)
            if path == "/v1/claim" and drop["armed"]:
                drop["armed"] = False
                raise BrokerTransportError("response dropped")
            return status, payload

        client = make_client(lossy, role="worker", worker_id="w0")
        claim = client.claim("w0", lease_s=30.0)
        assert claim is not None and claim.seq == 0
        assert claim.payload == "pa"
        # Exactly one lease exists broker-side despite two deliveries.
        state = broker._queue.state
        assert sum(1 for task in state.tasks.values() if task.active) == 1
        second = client.claim("w0", lease_s=30.0)
        assert second is not None and second.seq == 1

    def test_mangled_response_reframed_and_retried(self, tmp_path):
        broker = make_broker(tmp_path)
        inner = direct_send(broker)
        mangle = {"armed": True}

        def noisy(method, path, body):
            status, payload = inner(method, path, body)
            if mangle["armed"] and path == "/v1/attach":
                mangle["armed"] = False
                return status, payload[:-4] + b"XX\n"
            return status, payload

        client = make_client(noisy, role="coordinator", identity="c")
        assert client.open(create=True)  # CRC caught it; retry succeeded

    def test_mangled_claim_response_resent_with_the_same_key(self, tmp_path):
        broker = make_broker(tmp_path)
        coordinator = make_client(broker, role="coordinator", identity="c")
        assert coordinator.open(create=True)
        coordinator.submit(("a",), "precious payload")
        coordinator.submit(("b",), "other payload")
        coordinator.close()
        inner = direct_send(broker)
        sent = []

        def noisy(method, path, body):
            status, payload = inner(method, path, body)
            if path == "/v1/claim":
                sent.append(load_framed_line(body))
                if len(sent) == 1:  # the payload itself is hit in flight
                    at = payload.index(b"precious")
                    return status, payload[:at] + b"P" + payload[at + 1:]
            return status, payload

        worker = make_client(noisy, role="worker", worker_id="w0")
        claim = worker.claim("w0", lease_s=10.0)
        assert len(sent) == 2 and sent[0]["idem"] == sent[1]["idem"]
        assert (claim.seq, claim.token) == (0, 1)
        assert claim.payload == "precious payload"
        # The re-send replayed the first claim: one lease, one event.
        state = replay_spool(broker)
        assert [task.token for task in state.tasks.values()] == [1, 0]

    def test_unavailability_latches(self, tmp_path):
        calls = {"count": 0}

        def dead(method, path, body):
            calls["count"] += 1
            raise BrokerTransportError("connection refused")

        client = make_client(
            dead, role="worker",
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.0))
        with pytest.raises(BrokerUnavailableError) as excinfo:
            client.open()
        assert "restart against the same broker" in str(excinfo.value)
        assert calls["count"] == 3  # max_retries + 1
        with pytest.raises(BrokerUnavailableError):
            client.claim("w0", lease_s=5.0)
        assert calls["count"] == 3  # latched: no further network traffic

    def test_identity_mismatch_surfaces_unretried(self, tmp_path):
        broker = make_broker(tmp_path)
        attach(broker, identity="camp-a")
        client = make_client(broker, role="coordinator", identity="camp-b")
        with pytest.raises(CheckpointMismatchError):
            client.open(create=True)

    def test_protocol_errors_do_not_retry(self, tmp_path):
        broker = make_broker(tmp_path)
        calls = {"count": 0}
        inner = direct_send(broker)

        def counting(method, path, body):
            calls["count"] += 1
            return inner(method, path, body)

        client = make_client(counting, role="worker")
        with pytest.raises(BrokerError):
            client._call("POST", "/v1/nope", {})
        assert calls["count"] == 1

    def test_worker_heartbeat_sends_the_clients_pid(self, tmp_path):
        broker = make_broker(tmp_path)
        attach(broker)
        inner = direct_send(broker)
        sent = []

        def recording(method, path, body):
            sent.append((path, load_framed_line(body)))
            return inner(method, path, body)

        client = make_client(recording, role="worker", worker_id="w0")
        client.write_worker_heartbeat("w0", ttl_s=30.0)
        assert sent == [("/v1/worker_heartbeat",
                         {"worker": "w0", "ttl_s": 30.0,
                          "pid": os.getpid()})]
        [beat] = broker._queue.worker_heartbeats()
        assert beat.pid == os.getpid()

    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError):
            BrokerClient("http://x", role="observer")

    def test_corrupt_spool_line_skipped_on_mirror(self, tmp_path):
        broker = make_broker(tmp_path)
        coordinator = make_client(broker, role="coordinator", identity="c")
        assert coordinator.open(create=True)
        coordinator.submit(("a",), "pa")
        inner = direct_send(broker)

        def corrupting(method, path, body):
            status, payload = inner(method, path, body)
            if path == "/v1/sync":
                decoded = load_framed_line(payload)
                decoded["events"] = ("deadbeef {\"ev\": \"torn\"}\n"
                                     + decoded["events"])
                return status, frame_object(decoded)
            return status, payload

        fresh = BrokerClient("http://test-broker", role="coordinator",
                             send=corrupting, sleep=lambda _s: None,
                             retry=RetryPolicy(max_retries=2,
                                               backoff_base_s=0.0))
        assert fresh.open()
        assert fresh._skipped_lines >= 1
        assert fresh.state.stats.submitted == 1  # good lines still applied


class TestHTTPTransportValidation:
    def test_rejects_non_http_schemes(self):
        with pytest.raises(ValueError, match="must be http"):
            HTTPTransport("https://host:1")
        with pytest.raises(ValueError, match="no host"):
            HTTPTransport("http://")

    def test_bare_host_port_accepted(self):
        transport = HTTPTransport("127.0.0.1:8123")
        assert transport.host == "127.0.0.1"
        assert transport.port == 8123

    def test_connection_failure_is_transport_error(self):
        transport = HTTPTransport("http://127.0.0.1:1", timeout_s=0.5)
        with pytest.raises(BrokerTransportError):
            transport("GET", "/v1/status", b"")

    def test_default_retry_is_capped(self):
        policy = default_broker_retry()
        assert policy.backoff_max_s == 2.0
        assert all(delay <= 2.0 * (1 + policy.jitter)
                   for delay in policy.schedule(("p",)))


class TestServeBrokerHTTP:
    def test_real_http_roundtrip_and_hardening(self, tmp_path):
        broker = make_broker(tmp_path)
        server = serve_broker(broker, port=0, request_timeout_s=7.5)
        assert type(server).daemon_threads is True
        assert server.RequestHandlerClass.timeout == 7.5
        assert server.RequestHandlerClass.protocol_version == "HTTP/1.1"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            coordinator = BrokerClient(url, role="coordinator",
                                       identity="camp-http",
                                       default_lease_s=15.0)
            assert coordinator.open(create=True)
            assert coordinator.submit(("r0",), "net-payload") == 0
            coordinator.close()
            worker = BrokerClient(url, role="worker", worker_id="w0")
            assert worker.open()
            claim = worker.claim("w0", lease_s=15.0)
            assert claim.payload == "net-payload"
            assert worker.complete(claim, "net-outcome")
            coordinator.expire_overdue()
            assert coordinator.take_completion(0) == "net-outcome"
            assert coordinator.state.drained()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)


class TestBrokerScheduler:
    def test_unavailable_broker_trips_breaker(self, tmp_path):
        def dead(method, path, body):
            raise BrokerTransportError("connection refused")

        client = make_client(
            dead, role="coordinator", identity="c",
            retry=RetryPolicy(max_retries=1, backoff_base_s=0.0))
        scheduler = BrokerScheduler(client, CircuitBreaker())
        with pytest.raises(CircuitBreakerOpen) as excinfo:
            scheduler.start()
        assert "unreachable" in str(excinfo.value)

    def test_merge_leaves_no_outcome_payload_behind(self, tmp_path):
        broker = make_broker(tmp_path)
        coordinator = make_client(broker, role="coordinator", identity="c",
                                  default_lease_s=10.0)
        worker = make_client(broker, role="worker", worker_id="w0")

        def worker_turn(_delay):
            claim = worker.claim("w0", lease_s=10.0)
            if claim is not None:
                task = decode_payload(claim.payload)
                worker.complete(claim, encode_payload(("ran", task.key)))

        scheduler = BrokerScheduler(coordinator, CircuitBreaker(),
                                    poll_s=0.01, stall_s=0.0,
                                    sleep=worker_turn)
        assert scheduler.start()
        keys = [(f"r{index}",) for index in range(3)]
        items = [PendingRun(scheduled=SimpleNamespace(key=key),
                            task=SimpleNamespace(key=key)) for key in keys]
        for item in items:
            scheduler.submit(item)
        scheduler.seal()
        assert [scheduler.drain(item).outcome for item in items] \
            == [("ran", key) for key in keys]
        assert broker._queue.state.drained()
        assert [task.outcome for task in broker._queue.state.tasks.values()] \
            == [None] * 3
        assert [task.outcome for task in coordinator.state.tasks.values()] \
            == [None] * 3
        # The spool keeps them: a resumed coordinator's mirror replays it.
        assert [decode_payload(task.outcome) for task
                in replay_spool(broker).tasks.values()] \
            == [("ran", key) for key in keys]

    def test_shutdown_swallows_unavailability(self, tmp_path):
        broker = make_broker(tmp_path)
        client = make_client(broker, role="coordinator", identity="c",
                             retry=RetryPolicy(max_retries=1,
                                               backoff_base_s=0.0))
        scheduler = BrokerScheduler(client, CircuitBreaker())
        assert scheduler.start()
        client._down = "simulated outage"
        scheduler.shutdown()  # must not raise


class TestWorkerBrokerMode:
    def test_protocol_1_broker_is_one_error_line_and_exit_1(self):
        # A protocol-1 broker: no payloads inside its verbs.
        snapshot = frame_object({"ready": True, "protocol": 1, "now": 0.0,
                                 "identity": "camp", "lease_s": 30.0,
                                 "closed": False, "total": None,
                                 "submitted": 0, "completed": 0,
                                 "live_workers": []})
        server = serve_http(
            lambda method, path, body: (200, "application/json", snapshot),
            port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "worker", "--broker", url,
                 "--attach-timeout", "5"],
                env={**os.environ, "PYTHONPATH": str(
                    Path(__file__).parent.parent / "src")},
                capture_output=True, text=True, timeout=120)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)
        assert completed.returncode == 1, completed.stderr
        assert completed.stderr.splitlines() == [
            f"error: broker {url} speaks protocol 1, this client protocol "
            f"{BROKER_PROTOCOL_VERSION}: run the same repro version on both "
            f"ends"]

    def test_unreachable_broker_is_resumable_exit_75(self, tmp_path):
        worker = QueueWorker(WorkerConfig(
            broker_url="http://127.0.0.1:9", worker_id="w0",
            attach_timeout_s=1.0))
        worker.queue = make_client(
            lambda method, path, body: (_ for _ in ()).throw(
                BrokerTransportError("refused")),
            role="worker", worker_id="w0",
            retry=RetryPolicy(max_retries=1, backoff_base_s=0.0))
        assert worker.run() == 75  # EX_TEMPFAIL: restart to resume


class TestVersion1QueueDirectory:
    """A queue directory a version-1 broker left (payloads named by the
    digest of a blob beside the spool) is refused by the one replay:
    one ``error:`` line and exit 1 from each command, a 409 from the
    broker."""

    CAMPAIGN = ["--operator", "OP_V", "--areas", "A9", "--locations", "1",
                "--runs", "1", "--duration", "30"]

    @staticmethod
    def assert_one_error_line(code, stderr, text):
        assert code == 1, stderr
        assert "Traceback" not in stderr
        errors = [line for line in stderr.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and text in errors[0], stderr

    def test_broker_answers_409_on_attach(self, tmp_path):
        write_version_1_spool(tmp_path / "qdir")
        broker = make_broker(tmp_path)
        status, response = post(broker, "/v1/attach",
                                {"create": True, "identity": "camp"})
        assert status == 409 and response["code"] == "task_queue"
        assert "version 1 " in response["error"]

    @pytest.mark.parametrize("second_line, text", [
        ({"ev": "header", "version": 1, "identity": "camp"}, "version 1 "),
        ({"ev": "submit", "seq": 0, "key": ["other"], "payload": "p"},
         "re-submitted"),
    ], ids=["version-1", "seq-reused"])
    def test_status_is_one_error_line(self, tmp_path, capsys, second_line,
                                      text):
        qdir = tmp_path / "q"
        qdir.mkdir()
        (qdir / "events.spool").write_bytes(
            frame_object({"ev": "header", "version": 2,
                          "identity": "camp"})
            + frame_object({"ev": "submit", "seq": 0, "key": ["k0"],
                            "payload": "p"})
            + frame_object(second_line))
        code = main(["status", str(qdir)])
        captured = capsys.readouterr()
        assert captured.out == ""
        self.assert_one_error_line(code, captured.err, text)

    def test_status_server_answers_409(self, tmp_path):
        write_version_1_spool(tmp_path / "q")
        server = serve_status(CampaignAggregator(tmp_path / "q"), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            transport = HTTPTransport(
                f"http://127.0.0.1:{server.server_address[1]}")
            for path in ("/status", "/metrics"):
                status, body = transport("GET", path, b"")
                assert status == 409 and b"version 1 " in body
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)

    def test_campaign_and_worker_against_broker_serve(self, tmp_path):
        qdir = tmp_path / "q"
        write_version_1_spool(qdir)
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        broker = subprocess.Popen(
            [sys.executable, "-m", "repro", "broker", "serve",
             "--queue-dir", str(qdir), "--no-fsync", "--drain-grace", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            url = broker.stdout.readline().strip()
            assert url.startswith("http://"), broker.stderr.read()
            for command in (["campaign", *self.CAMPAIGN, "--broker", url],
                            ["worker", "--broker", url,
                             "--attach-timeout", "5"]):
                completed = subprocess.run(
                    [sys.executable, "-m", "repro", *command], env=env,
                    capture_output=True, text=True, timeout=120)
                self.assert_one_error_line(completed.returncode,
                                           completed.stderr, "version 1 ")
        finally:
            broker.terminate()
            broker.communicate(timeout=60)
