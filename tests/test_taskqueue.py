"""Durable task queue: leases, fencing tokens, crash-safe stealing.

Three layers under test:

* the disk-backed :class:`DurableTaskQueue` verbs — claim order,
  idempotent submits, heartbeat extension, lease expiry and work
  stealing, fenced completions, identity checking and torn-tail repair
  of the CRC-framed spool,
* multi-instance replay: two queue instances over one spool (each with
  its own replay offset, serialized by the flock) must observe each
  other's events and agree,
* hypothesis property suites: random
  claim/heartbeat/expire/steal/complete interleavings against an
  in-memory oracle (no run is ever completed twice, no claimed run is
  ever lost — after enough clock, every submitted task drains), and
  arbitrary JSON in every field of every event kind through both
  spool replays — the queue's own and the broker client's mirror —
  which must agree and never crash.

The disk queue drops each outcome payload as it replays it, so tests
read outcomes through a pure :class:`LeaseState` replay of the spool
file (:func:`spool_state`) or through the mirror.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign.broker_client import BrokerClient
from repro.resilience.checkpoint import CheckpointMismatchError
from repro.resilience.framing import frame_line, frame_object, load_framed_line
from repro.resilience.retry import RetryPolicy
from repro.resilience.taskqueue import (
    BROKER_PROTOCOL_VERSION,
    QUEUE_VERSION,
    DurableTaskQueue,
    LeaseState,
    TaskQueueError,
    replay_line,
)
from tests.test_obs_metrics import FakeClock


def make_queue(root, clock=None, **kwargs):
    kwargs.setdefault("fsync", False)
    queue = DurableTaskQueue(root, clock=clock or FakeClock(), **kwargs)
    return queue


def spool_state(root) -> LeaseState:
    """A pure replay of the spool file, outcomes included."""
    state = LeaseState()
    for line in (Path(root) / "events.spool").read_bytes().splitlines():
        replay_line(state, line)
    return state


def open_pair(root, clock):
    """Coordinator-ish + worker-ish instance over one spool."""
    first = make_queue(root, clock)
    assert first.open(create=True)
    second = make_queue(root, clock)
    assert second.open()
    return first, second


# ----------------------------------------------------------------------
# Basic verbs
# ----------------------------------------------------------------------


class TestSubmitAndClaim:
    def test_open_without_create_reports_missing_spool(self, tmp_path):
        queue = make_queue(tmp_path / "q")
        assert queue.open() is False  # workers poll until this flips

    def test_claims_lowest_seq_first(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.open(create=True)
        for index in range(3):
            assert queue.submit_at(index, (f"k{index}",), f"p{index}") \
                == index
        first = queue.claim("w1", lease_s=10.0)
        second = queue.claim("w2", lease_s=10.0)
        assert (first.seq, first.payload) == (0, "p0")
        assert (second.seq, second.payload) == (1, "p1")
        assert first.worker == "w1"

    def test_submit_is_idempotent_per_seq(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.open(create=True)
        queue.submit_at(0, ("k0",), "p0")
        # A restarted broker re-submits a key it already holds: the
        # matching key makes the submit a no-op.
        resumed = make_queue(tmp_path / "q", clock)
        resumed.open()
        assert resumed.submit_at(0, ("k0",), "p0") == 0
        assert resumed.state.stats.submitted == 1

    def test_mismatched_resubmit_key_is_structural_error(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.open(create=True)
        queue.submit_at(0, ("k0",), "p0")
        resumed = make_queue(tmp_path / "q", clock)
        resumed.open()
        with pytest.raises(TaskQueueError, match="mixes two schedules"):
            resumed.submit_at(0, ("other",), "p0")

    def test_nothing_claimable_returns_none(self, tmp_path):
        queue = make_queue(tmp_path / "q")
        queue.open(create=True)
        assert queue.claim("w1", lease_s=10.0) is None

    def test_drained_requires_close_and_all_completions(self, tmp_path):
        queue = make_queue(tmp_path / "q")
        queue.open(create=True)
        queue.submit_at(0, ("k0",), "p0")
        assert not queue.state.drained()
        queue.close()
        assert not queue.state.drained()
        claim = queue.claim("w1", lease_s=10.0)
        assert queue.complete(claim, "done")
        assert queue.state.drained()


class TestLeaseLifecycle:
    def test_heartbeat_extends_the_deadline(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.open(create=True)
        queue.submit_at(0, ("k0",), "p0")
        claim = queue.claim("w1", lease_s=10.0)
        clock.advance(8.0)
        assert queue.heartbeat(claim, lease_s=10.0) is True
        clock.advance(8.0)  # 16s total: dead without the heartbeat
        assert queue.state.expired_leases(clock()) == []
        assert queue.complete(claim, "done") is True

    def test_missed_heartbeats_expire_the_lease(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.open(create=True)
        queue.submit_at(0, ("k0",), "p0")
        claim = queue.claim("w1", lease_s=10.0)
        clock.advance(10.1)
        queue.expire_overdue()
        queue.expire_overdue()  # idempotent: nothing left to expire
        assert queue.state.stats.expired == 1
        assert queue.state.tasks[0].requeued_from == "w1"
        assert queue.heartbeat(claim, lease_s=10.0) is False  # fenced

    def test_steal_fences_off_the_original_holder(self, tmp_path):
        clock = FakeClock()
        coordinator, thief = open_pair(tmp_path / "q", clock)
        coordinator.submit_at(0, ("k0",), "p0")
        victim_claim = coordinator.claim("victim", lease_s=5.0)
        clock.advance(5.1)
        # The thief's claim expires the overdue lease and re-claims in
        # one locked append: a steal.
        stolen = thief.claim("thief", lease_s=5.0)
        assert stolen.seq == 0
        assert stolen.token == victim_claim.token + 1
        # The slow-but-alive victim is fenced on every late verb.
        assert coordinator.heartbeat(victim_claim, lease_s=5.0) is False
        assert coordinator.complete(victim_claim, "late") is False
        # Only the thief's completion counts — never two.
        assert thief.complete(stolen, "won") is True
        coordinator.catch_up()
        assert coordinator.state.stats.completed == 1
        assert coordinator.state.stats.stolen == 1
        assert coordinator.state.tasks[0].outcome is None  # dropped
        assert spool_state(tmp_path / "q").tasks[0].outcome == "won"

    def test_reclaim_by_same_worker_is_not_a_steal(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.open(create=True)
        queue.submit_at(0, ("k0",), "p0")
        queue.claim("w1", lease_s=5.0)
        clock.advance(5.1)
        reclaimed = queue.claim("w1", lease_s=5.0)
        assert reclaimed is not None
        assert queue.state.stats.expired == 1
        assert queue.state.stats.stolen == 0


class TestDispositionsAndPayloads:
    def test_dispositions_reported_once_in_log_order(self, tmp_path):
        clock = FakeClock()
        coordinator, worker = open_pair(tmp_path / "q", clock)
        coordinator.drain_dispositions()  # swallow header/open noise
        coordinator.submit_at(0, ("k0",), "p0")
        claim = worker.claim("w1", lease_s=5.0)
        worker.complete(claim, "done")
        kinds = [kind for kind, _seq, _worker
                 in coordinator.drain_dispositions()]
        assert kinds == ["submit", "claim", "complete"]
        assert coordinator.drain_dispositions() == []  # consumed exactly once



class TestSpoolDurability:
    def test_identity_mismatch_refuses_the_spool(self, tmp_path):
        clock = FakeClock()
        ours = make_queue(tmp_path / "q", clock, identity="aaaa0001")
        ours.open(create=True)
        foreign = make_queue(tmp_path / "q", clock, identity="bbbb0002")
        with pytest.raises(CheckpointMismatchError, match="different"):
            foreign.open()

    def test_lease_advertised_in_header_is_inherited(self, tmp_path):
        clock = FakeClock()
        coordinator = make_queue(tmp_path / "q", clock, default_lease_s=12.5)
        coordinator.open(create=True)
        worker = make_queue(tmp_path / "q", clock)
        worker.open()
        assert worker.state.default_lease_s == 12.5

    def test_torn_tail_is_repaired_and_skipped(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.open(create=True)
        queue.submit_at(0, ("k0",), "p0")
        # A writer SIGKILLed mid-append leaves an unterminated fragment.
        with queue.events_path.open("ab") as handle:
            handle.write(b'deadbeef {"ev": "compl')
        # Readers refuse the torn tail until a writer repairs the framing.
        late = make_queue(tmp_path / "q", clock)
        late.open()
        assert late.state.stats.submitted == 1
        queue.submit_at(1, ("k1",), "p1")  # repairs: newline isolates it
        late.catch_up()
        assert late.state.stats.submitted == 2
        assert late._skipped_lines == 1  # the fragment, CRC-invalid
        assert late.claim("w1", lease_s=5.0).seq == 0

    def test_corrupt_mid_spool_line_is_skipped_not_fatal(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.open(create=True)
        queue.submit_at(0, ("k0",), "p0")
        with queue.events_path.open("ab") as handle:
            handle.write(b"00000000 {garbage}\n")
            handle.write(frame_line(b'{"ev": "close", "total": 1}') + b"\n")
        fresh = make_queue(tmp_path / "q", clock)
        fresh.open()
        assert fresh.state.closed
        assert fresh._skipped_lines == 1

    def test_worker_heartbeat_files_gate_liveness(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path / "q", clock)
        queue.open(create=True)
        queue.write_worker_heartbeat("w1", ttl_s=5.0, pid=1)
        assert queue.live_workers() == ["w1"]
        clock.advance(9.0)  # within ttl * grace (5 * 2)
        assert queue.live_workers() == ["w1"]
        clock.advance(2.0)
        assert queue.live_workers() == []


#: SHA-256 of the spool and heartbeat file
#: ``test_fixed_verb_sequence_writes_pinned_bytes`` writes: a change to
#: them is a change of the on-disk format.  Recorded before the spool
#: writers shared one framed-file layer; the spool's re-recorded for
#: format version 2, which changed its header line alone
#: (``"version": 2``; the payloads here were already text).
SPOOL_SHA256 = \
    "38df5e0ccaac1facbca9a08045ec31a0144431315811c3555ad54bc57d052d1a"
HEARTBEAT_SHA256 = \
    "62e8d909f83e04f214ffa6ca3de18b82e0480ccec74b7b6e163ae3ce77780e1f"


def test_fixed_verb_sequence_writes_pinned_bytes(tmp_path):
    clock = FakeClock(100.0)
    queue = make_queue(tmp_path / "q", clock, identity="cafe1234",
                       default_lease_s=5.0)
    queue.open(create=True)
    for seq in range(4):
        queue.submit_at(seq, ("OP_V", "A9", f"A9-P{seq}", seq),
                        f"d{seq:063d}")
    queue.close()
    first = queue.claim("w1", 5.0)
    clock.advance(1.0)
    queue.heartbeat(first, 5.0)
    queue.complete(first, "c" * 64)
    second = queue.claim("w1", 5.0)
    clock.advance(20.0)
    queue.expire_overdue()
    stolen = queue.claim("w2", 5.0)
    assert not queue.complete(second, "f" * 64)  # fenced: no event
    queue.complete(stolen, "e" * 64)
    third = queue.claim("w2", 2.5)
    queue.complete(third, "b" * 64)
    queue.write_worker_heartbeat("w2", 5.0, pid=7, run_key=third.key,
                                 token=third.token)
    digest = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (
        queue.events_path, queue.workers_dir / "w2.hb")]
    assert digest == [SPOOL_SHA256, HEARTBEAT_SHA256]


# ----------------------------------------------------------------------
# Property suite: random interleavings vs an in-memory oracle
# ----------------------------------------------------------------------

_OP = st.tuples(
    st.sampled_from(["submit", "claim_a", "claim_b", "heartbeat_a",
                     "heartbeat_b", "complete_a", "complete_b",
                     "advance", "expire"]),
    st.integers(min_value=0, max_value=5))


class TestLeaseProperty:
    """No run completed twice; no claimed run lost.

    Two queue instances over one spool play the parts of two worker
    processes while a hand-cranked clock drives lease expiry, so
    steals and fenced completions arise organically from the random
    interleaving.  The oracle is the ``completed`` set: a ``complete``
    may only return True for a seq not already in it, and after the
    final drain every submitted seq must be in it exactly once.
    """

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(_OP, max_size=40))
    def test_random_interleavings_never_lose_or_double_complete(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            self._drive(Path(tmp) / "q", ops)

    def _drive(self, root, ops):
        clock = FakeClock()
        queue_a, queue_b = open_pair(root, clock)
        queues = {"a": queue_a, "b": queue_b}
        held = {"a": [], "b": []}
        completed: set[int] = set()
        submitted = 0
        for op, arg in ops:
            if op == "submit":
                queue_a.submit_at(submitted, (f"k{submitted}",),
                                  f"p{submitted}")
                submitted += 1
            elif op.startswith("claim"):
                name = op[-1]
                claim = queues[name].claim(name, lease_s=10.0)
                if claim is not None:
                    assert claim.seq not in completed, \
                        "claimed a task that was already completed"
                    held[name].append(claim)
            elif op.startswith("heartbeat"):
                name = op[-1]
                if held[name]:
                    queues[name].heartbeat(
                        held[name][arg % len(held[name])], lease_s=10.0)
            elif op.startswith("complete"):
                name = op[-1]
                if held[name]:
                    claim = held[name].pop(arg % len(held[name]))
                    if queues[name].complete(claim, f"done{claim.seq}"):
                        assert claim.seq not in completed, \
                            "run completed twice"
                        completed.add(claim.seq)
            elif op == "advance":
                clock.advance(4.0 + arg)  # two+ advances expire a lease
            elif op == "expire":
                queue_a.expire_overdue()

        # No claimed run lost: whatever the interleaving left behind —
        # active leases, expired leases, unclaimed tasks — a surviving
        # worker must be able to drain every remaining task.
        queue_a.close()
        clock.advance(100.0)
        while True:
            claim = queue_b.claim("b", lease_s=10.0)
            if claim is None:
                break
            assert claim.seq not in completed
            assert queue_b.complete(claim, f"done{claim.seq}")
            completed.add(claim.seq)
        assert completed == set(range(submitted))

        # A fresh replay of the full spool agrees with the oracle.
        fresh = make_queue(root, clock)
        fresh.open()
        assert fresh.state.stats.completed == submitted
        assert fresh.state.stats.submitted == submitted
        assert fresh.state.drained()
        replayed = spool_state(root)
        for seq in range(submitted):
            assert fresh.state.tasks[seq].outcome is None
            assert replayed.tasks[seq].outcome == f"done{seq}"


# A raw replay event against a single-task spool: the kind, a token
# *offset* from the currently-accepted one (0 = stale duplicate,
# 1 = the next writer, 2+ = a skipped/forged token that must fence),
# and an arbitrarily skewed deadline — hypothesis freely duplicates
# and reorders these, which is exactly the hazard space of heartbeat
# events arriving over a lossy network.
_REPLAY_EV = st.tuples(
    st.sampled_from(["claim", "heartbeat", "expire", "complete"]),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False))


class TestLeaseStateReplayProperty:
    """``LeaseState.apply`` under skewed and duplicated lease events.

    The broker coordinator mirrors the spool over the network, so its
    state machine sees whatever event stream survives retries and
    duplication.  Three properties must hold for *any* stream:

    * fencing tokens accepted by claims are strictly monotonic — a
      duplicated or replayed claim can never re-arm an old token;
    * a heartbeat never resurrects a lease: if the task was inactive
      (expired, completed or never claimed) before the heartbeat, it
      is inactive after, whatever deadline the event carries;
    * a completion is permanent — once ``done``, no later event of any
      kind un-completes the task or double-counts ``completed``.
    """

    @settings(max_examples=60, deadline=None)
    @given(events=st.lists(_REPLAY_EV, max_size=60))
    def test_no_resurrection_and_monotonic_fencing(self, events):
        state = LeaseState()
        state.apply({"ev": "header", "version": QUEUE_VERSION,
                     "identity": "prop", "lease_s": 10.0})
        state.apply({"ev": "submit", "seq": 0, "key": ["k0"],
                     "payload": "p0"})
        accepted_tokens = []
        for kind, offset, deadline in events:
            task = state.tasks[0]
            token = task.token + offset
            was_active, was_done = task.active, task.done
            was_completed = state.stats.completed
            disposition = state.apply({
                "ev": kind, "seq": 0, "token": token, "worker": "w",
                "deadline": deadline, "payload": f"out-{token}"})
            if disposition in ("claim", "steal"):
                assert kind == "claim" and not was_active and not was_done
                assert offset == 1  # only the next fencing token claims
                accepted_tokens.append(token)
            if kind == "heartbeat":
                # No resurrection: an inactive lease stays inactive no
                # matter how far the duplicated deadline skews.
                if not was_active:
                    assert disposition == "fenced"
                    assert not task.active
                assert task.done == was_done
            if was_done:
                # Completion is permanent under every later event.
                assert task.done and not task.active
                assert state.stats.completed == was_completed
            assert state.stats.completed <= 1
        assert accepted_tokens == sorted(set(accepted_tokens))
        assert all(later > earlier for earlier, later
                   in zip(accepted_tokens, accepted_tokens[1:]))


# ----------------------------------------------------------------------
# Replay robustness: CRC-valid lines with arbitrary field values
# ----------------------------------------------------------------------


def spool_with_task_0(root, lines=()):
    """A spool holding a header and task 0, then ``lines`` framed."""
    queue = make_queue(root, identity="camp")
    queue.open(create=True)
    queue.submit_at(0, ("k0",), "p0")
    with queue.events_path.open("ab") as handle:
        for line in lines:
            handle.write(frame_line(line.encode()) + b"\n")


def disk_replay(root):
    """The queue's own replay of the spool (what the broker runs)."""
    queue = make_queue(root)
    assert queue.open()
    return queue


#: The status snapshot a broker staples onto its answers (the fields
#: the client reads).
SNAPSHOT = {"ready": True, "protocol": BROKER_PROTOCOL_VERSION, "now": 0.0,
            "identity": None, "lease_s": None, "closed": False,
            "total": None, "submitted": 0, "completed": 0,
            "live_workers": []}


def mirror_replay(root):
    """The coordinator's broker-client mirror of the same spool bytes."""
    spool = root / "events.spool"

    def send(method, path, body):
        if path == "/v1/attach":
            return 200, frame_object(SNAPSHOT)
        offset = load_framed_line(body)["offset"]
        data = spool.read_bytes()
        return 200, frame_object({
            "events": data[offset:].decode("utf-8", "replace"),
            "next_offset": len(data), "status": SNAPSHOT})

    client = BrokerClient("http://spool", role="coordinator", send=send,
                          sleep=lambda _s: None,
                          retry=RetryPolicy(max_retries=0))
    assert client.open()
    return client


#: One framed line each, appended after task 0, that used to crash the
#: replay (ValueError, TypeError or OverflowError out of apply or the
#: disposition attribution).
CRASHERS = [
    '{"ev": "claim", "seq": "x", "token": 1}',
    '{"ev": "bogus", "seq": "x"}',
    '{"ev": "claim", "seq": 0, "token": 1, "worker": "w0", '
    '"deadline": "soon"}',
    '{"ev": "header", "version": "v1"}',
    '{"ev": "header", "lease_s": [1]}',
    '{"ev": "submit", "seq": 1e400, "key": ["k1"], "payload": "p1"}',
]


#: One framed line each, appended after a claim of task 0, whose
#: payload is not text: a ``submit`` or ``complete`` the replays count
#: invalid.
NON_TEXT_PAYLOADS = [
    '{"ev": "submit", "seq": 1, "key": ["k1"], "payload": 5}',
    '{"ev": "submit", "seq": 1, "key": ["k1"], "payload": null}',
    '{"ev": "submit", "seq": 1, "key": ["k1"]}',
    '{"ev": "complete", "seq": 0, "token": 1, "payload": ["o"]}',
    '{"ev": "complete", "seq": 0, "token": 1, "payload": {"o": 1}}',
    '{"ev": "complete", "seq": 0, "token": 1}',
]


def write_version_1_spool(root):
    """A queue directory as version 1 left it: header ``"version": 1``
    and a submit whose payload is the SHA-256 of a blob that lived in
    ``<root>/artifacts/``."""
    root.mkdir(parents=True)
    digest = hashlib.sha256(b"task").hexdigest()
    (root / "events.spool").write_bytes(
        frame_object({"ev": "header", "version": 1, "identity": "camp",
                      "lease_s": 30.0})
        + frame_object({"ev": "submit", "seq": 0, "key": ["k0"],
                        "payload": digest}))


class TestReplayRobustness:
    @pytest.mark.parametrize("replay", [disk_replay, mirror_replay],
                             ids=["disk", "mirror"])
    @pytest.mark.parametrize("line", CRASHERS)
    def test_crc_valid_line_is_counted_invalid(self, tmp_path, replay,
                                               line):
        spool_with_task_0(tmp_path / "q", [line])
        queue = replay(tmp_path / "q")
        state = queue.state
        assert state.stats.invalid == 1
        assert state.stats.submitted == 1 and list(state.tasks) == [0]
        assert not state.tasks[0].active  # the bad claim changed nothing
        assert (state.identity, state.version, state.default_lease_s) \
            == ("camp", QUEUE_VERSION, None)  # nor did the bad header
        assert queue._skipped_lines == 0

    @pytest.mark.parametrize("replay", [disk_replay, mirror_replay],
                             ids=["disk", "mirror"])
    def test_seq_reused_for_another_key_still_raises(self, tmp_path,
                                                     replay):
        spool_with_task_0(tmp_path / "q", [
            '{"ev": "submit", "seq": 0, "key": ["other"], "payload": "p"}'])
        with pytest.raises(TaskQueueError, match="mixes two schedules"):
            replay(tmp_path / "q")

    @pytest.mark.parametrize("replay", [disk_replay, mirror_replay],
                             ids=["disk", "mirror"])
    @pytest.mark.parametrize("line", NON_TEXT_PAYLOADS)
    def test_non_text_payload_is_invalid(self, tmp_path, replay, line):
        spool_with_task_0(tmp_path / "q", [
            '{"ev": "claim", "seq": 0, "token": 1, "worker": "w0", '
            '"deadline": 5.0}', line])
        state = replay(tmp_path / "q").state
        assert state.stats.invalid == 1
        assert list(state.tasks) == [0]  # no task 1 was submitted
        task = state.tasks[0]
        assert task.active and not task.done  # nor task 0 completed
        assert (task.payload, task.outcome) == ("p0", None)

    @pytest.mark.parametrize("replay", [disk_replay, mirror_replay],
                             ids=["disk", "mirror"])
    @pytest.mark.parametrize("version", [1, 0, QUEUE_VERSION + 1])
    def test_header_of_another_version_raises(self, tmp_path, replay,
                                              version):
        spool_with_task_0(tmp_path / "q", [json.dumps(
            {"ev": "header", "version": version, "identity": "camp"})])
        with pytest.raises(TaskQueueError, match=f"version {version} "):
            replay(tmp_path / "q")

    @pytest.mark.parametrize("replay", [disk_replay, mirror_replay],
                             ids=["disk", "mirror"])
    def test_version_1_spool_raises(self, tmp_path, replay):
        # What a version-1 writer left: payloads named by the digest of
        # a blob beside the spool.
        write_version_1_spool(tmp_path / "q")
        with pytest.raises(TaskQueueError, match="version 1 "):
            replay(tmp_path / "q")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([10 ** 400, -1, 2 ** 63]) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6)

#: Every event kind's fields, and values its writer could put there
#: (so arbitrary values meet live tasks and leases, not just misses).
_FIELDS = {
    "header": ("version", "identity", "lease_s"),
    "submit": ("seq", "key", "payload"),
    "close": ("total",),
    "claim": ("seq", "token", "worker", "deadline"),
    "heartbeat": ("seq", "token", "deadline"),
    "expire": ("seq", "token"),
    "complete": ("seq", "token", "payload"),
}
_PLAUSIBLE = {
    "version": st.just(QUEUE_VERSION),
    "identity": st.just("camp"),
    "lease_s": st.just(10.0),
    "seq": st.integers(0, 2),
    "key": st.sampled_from([["k0"], ["k1"], ["k2"]]),
    "payload": st.just("p"),
    "total": st.integers(0, 3),
    "token": st.integers(0, 3),
    "worker": st.sampled_from(["w0", "w1"]),
    "deadline": st.floats(-10.0, 10.0),
}


@st.composite
def _events(draw):
    kind = draw(st.sampled_from(sorted(_FIELDS)) | _JSON)
    fields = _FIELDS.get(kind, ("seq",)) if isinstance(kind, str) \
        else ("seq",)
    event = {"ev": kind}
    for name in fields:
        source = draw(st.sampled_from(["absent", "plausible", "arbitrary"]))
        if source == "plausible":
            event[name] = draw(_PLAUSIBLE[name])
        elif source == "arbitrary":
            event[name] = draw(_JSON)
    return event


#: A well-formed claim of task 0, so a pinned ``complete`` can land.
CLAIM_0 = {"ev": "claim", "seq": 0, "token": 1, "worker": "w0",
           "deadline": 5.0}


class TestReplayFuzzProperty:
    """Arbitrary JSON in every field of every event kind, payloads and
    header versions included: both replays either raise
    ``TaskQueueError`` (a seq re-used for another key, a header of
    another version) or finish, and then agree on the state,
    dispositions and skip count once the mirror's outcomes are taken —
    each equal to its spool event's payload, where the disk queue holds
    none."""

    @settings(max_examples=150, deadline=None)
    @given(events=st.lists(_events(), max_size=12))
    @example(events=[CLAIM_0, {"ev": "complete", "seq": 0, "token": 1,
                                "payload": "o"}])
    @example(events=[CLAIM_0,
                     {"ev": "submit", "seq": 1, "key": ["k1"], "payload": 5},
                     {"ev": "complete", "seq": 0, "token": 1,
                      "payload": ["o"]}])
    @example(events=[{"ev": "header", "version": 1, "identity": "camp"}])
    def test_both_replays_survive_and_agree(self, events):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "q"
            spool_with_task_0(root, [json.dumps(event) for event in events])
            outcomes = []
            for replay in (disk_replay, mirror_replay):
                try:
                    queue = replay(root)
                except TaskQueueError:
                    outcomes.append("TaskQueueError")
                    continue
                if replay is mirror_replay:
                    expected = spool_state(root)
                    for seq, task in expected.tasks.items():
                        assert queue.take_completion(seq) == task.outcome
                else:
                    assert all(task.outcome is None
                               for task in queue.state.tasks.values())
                outcomes.append((repr(vars(queue.state)),
                                 queue.drain_dispositions(),
                                 queue._skipped_lines))
            assert outcomes[0] == outcomes[1]
