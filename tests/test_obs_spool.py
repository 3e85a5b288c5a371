"""Per-worker telemetry spools: framing, incremental flush, torn tails."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import make_instrumentation
from repro.obs.aggregate import render_status
from repro.obs.spool import (
    SPOOL_SUFFIX,
    TELEMETRY_DIRNAME,
    TelemetrySpool,
    read_spool,
    read_spool_frames,
)
from repro.obs.tracing import verify_span_tree
from repro.resilience.checkpoint import frame_line
from tests.test_obs_metrics import FakeClock
from tests.test_obs_status import make_aggregator, make_queue

#: Arbitrary JSON, NaN and infinities included (the decoder accepts
#: them), plus integers too large for a float.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.just(10 ** 400),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8)


def near(valid):
    """Mostly well-typed values, sometimes arbitrary JSON."""
    return valid | JSON_VALUES


NUMBERS = near(st.integers() | st.floats())
EVENTS = st.fixed_dictionaries({"name": near(st.sampled_from(["e", "f"]))},
                               optional={
    "severity": near(st.sampled_from(["debug", "warning"])),
    "seq": NUMBERS, "wall_s": NUMBERS, "mono_s": NUMBERS,
    "worker": near(st.just("w0")), "campaign": near(st.just("c")),
    "run_key": near(st.just(["OP_V", "A9", "L", 0])),
    "token": NUMBERS, "fields": near(st.just({"k": 1}))})
SPANS = st.fixed_dictionaries({
    "name": near(st.just("run")), "span_id": NUMBERS,
    "parent_id": near(st.none()), "start_s": NUMBERS,
    "end_s": NUMBERS, "status": near(st.just("ok"))},
    optional={"attributes": near(st.just({"a": 1}))})
METRIC_NAMES = st.sampled_from(["a", "b", "queue_depth",
                                "runs_stolen_total"])
SERIES = near(st.dictionaries(st.sampled_from(["", "k=1"]), NUMBERS,
                              max_size=2))
HISTOGRAM_SERIES = near(st.fixed_dictionaries({}, optional={
    "count": NUMBERS, "sum": NUMBERS,
    "buckets": near(st.dictionaries(
        st.sampled_from(["1.0", "2.0", "+Inf", "1"]), NUMBERS, max_size=3)),
    "bounds": near(st.sampled_from([[1.0, 2.0], [1, 2], [2.0, 1.0]]))}))
SNAPSHOTS = near(st.fixed_dictionaries({}, optional={
    "counters": near(st.dictionaries(METRIC_NAMES, SERIES, max_size=2)),
    "gauges": near(st.dictionaries(METRIC_NAMES, SERIES, max_size=2)),
    "histograms": near(st.dictionaries(
        METRIC_NAMES, near(st.dictionaries(st.sampled_from(["", "k=1"]),
                                           HISTOGRAM_SERIES, max_size=2)),
        max_size=2))}))
SPOOL_FRAMES = st.fixed_dictionaries(
    {"t": near(st.sampled_from(["meta", "events", "spans", "metrics"]))},
    optional={"session": near(st.sampled_from(["s1", "s2"])),
              "worker": near(st.just("w0")),
              "events": near(st.lists(EVENTS, max_size=3)),
              "spans": near(st.lists(SPANS, max_size=3)),
              "snapshot": SNAPSHOTS, "mono_s": NUMBERS})


def make_spool(tmp_path, worker="w0", **kwargs):
    return TelemetrySpool(tmp_path / "telemetry", worker,
                          campaign="cafe0123", **kwargs)


def fill(obs, *, events=1, spans=1, counts=1):
    for index in range(events):
        obs.events.emit(f"e{index}", run_key=("OP_V", "A9", "L", index))
    for index in range(spans):
        with obs.tracer.span("run", run_index=index):
            with obs.tracer.span("parse"):
                pass
    for _ in range(counts):
        obs.registry.counter("campaign_runs_completed_total").inc()


class TestSpoolWriting:
    def test_open_writes_a_meta_frame_with_identity(self, tmp_path):
        spool = make_spool(tmp_path)
        spool.open()
        content = read_spool(spool.path)
        assert spool.path.name == "w0" + SPOOL_SUFFIX
        [meta] = content.sessions
        assert meta["worker"] == "w0"
        assert meta["campaign"] == "cafe0123"
        assert meta["session"] == spool.session
        assert content.latest_session == spool.session

    def test_flush_is_incremental_per_layer(self, tmp_path):
        spool = make_spool(tmp_path)
        obs = make_instrumentation(clock=FakeClock())
        fill(obs, events=2, spans=1, counts=1)
        assert spool.flush(obs) == 3  # events + spans + metrics frames
        assert spool.flush(obs) == 0  # nothing new → no frames at all
        fill(obs, events=1, spans=0, counts=1)
        assert spool.flush(obs) == 2  # one events frame, one metrics frame
        content = read_spool(spool.path)
        assert [event.name for event in content.events] == ["e0", "e1", "e0"]
        # The metrics frame is cumulative: latest-wins per session.
        [snapshot] = content.metrics.values()
        assert snapshot["counters"][
            "campaign_runs_completed_total"][""] == 2

    def test_events_and_spans_appear_exactly_once_across_flushes(
            self, tmp_path):
        spool = make_spool(tmp_path)
        obs = make_instrumentation(clock=FakeClock())
        for _ in range(3):
            fill(obs, events=1, spans=1, counts=0)
            spool.flush(obs)
        content = read_spool(spool.path)
        assert len(content.events) == 3
        assert len(content.spans) == 6  # run + parse per fill

    def test_restart_appends_a_new_session_to_the_same_file(self, tmp_path):
        first = make_spool(tmp_path)
        obs = make_instrumentation(clock=FakeClock())
        fill(obs, events=1, spans=0, counts=0)
        first.flush(obs)
        second = make_spool(tmp_path)  # same worker id, new incarnation
        second.open()
        content = read_spool(first.path)
        assert len(content.sessions) == 2
        assert content.latest_session == second.session


class TestTornAndCorruptSpools:
    def test_torn_tail_is_detected_and_earlier_frames_survive(
            self, tmp_path):
        spool = make_spool(tmp_path)
        obs = make_instrumentation(clock=FakeClock())
        fill(obs, events=2, spans=2, counts=1)
        spool.flush(obs)
        blob = spool.path.read_bytes()
        # SIGKILL mid-append: the last line is half-written.
        spool.path.write_bytes(blob[:-20])
        content = read_spool(spool.path)
        assert content.torn is True
        assert content.skipped == 0  # a torn tail is not corruption
        assert [event.name for event in content.events] == ["e0", "e1"]

    def test_span_tree_recovered_from_a_torn_spool_verifies(self, tmp_path):
        # The acceptance property: spans flushed before the kill are
        # recoverable as a structurally valid tree even when the spool
        # ends mid-frame.
        spool = make_spool(tmp_path)
        obs = make_instrumentation(clock=FakeClock())
        fill(obs, events=0, spans=3, counts=0)
        spool.flush(obs)
        fill(obs, events=0, spans=1, counts=3)
        spool.flush(obs)
        blob = spool.path.read_bytes()
        spool.path.write_bytes(blob[:-30])  # tear the final frame
        content = read_spool(spool.path)
        assert content.torn is True
        assert len(content.spans) >= 6  # everything from the first flush
        assert verify_span_tree(content.spans) == []

    def test_crc_corrupt_line_is_skipped_and_counted(self, tmp_path):
        spool = make_spool(tmp_path)
        obs = make_instrumentation(clock=FakeClock())
        fill(obs, events=2, spans=0, counts=0)
        spool.flush(obs)
        lines = spool.path.read_text().splitlines()
        lines[1] = lines[1][:12] + "X" + lines[1][13:]  # flip inside payload
        spool.path.write_text("\n".join(lines) + "\n")
        content = read_spool(spool.path)
        assert content.skipped == 1
        assert content.events == []  # the events frame was the corrupt one
        assert len(content.sessions) == 1

    def test_reopen_after_tear_repairs_the_tail(self, tmp_path):
        spool = make_spool(tmp_path)
        obs = make_instrumentation(clock=FakeClock())
        fill(obs, events=1, spans=0, counts=0)
        spool.flush(obs)
        spool.path.write_bytes(spool.path.read_bytes()[:-5])
        revived = make_spool(tmp_path)
        revived.open()
        content = read_spool(spool.path)
        assert content.torn is False  # the newline splice sealed the tear
        assert content.latest_session == revived.session

    def test_unframed_garbage_line_is_skipped(self, tmp_path):
        path = tmp_path / ("w9" + SPOOL_SUFFIX)
        path.write_text(frame_line(json.dumps({"no_type": 1})) + "\n"
                        "not a frame at all\n")
        frames, offset, skipped, torn = read_spool_frames(path)
        assert frames == []
        assert skipped == 2
        assert torn is False
        assert offset == path.stat().st_size

    def test_offset_tailing_never_rereads_frames(self, tmp_path):
        spool = make_spool(tmp_path)
        obs = make_instrumentation(clock=FakeClock())
        fill(obs, events=1, spans=0, counts=0)
        spool.flush(obs)
        frames, offset, _, _ = read_spool_frames(spool.path)
        assert len(frames) == 2  # meta + events
        fill(obs, events=1, spans=0, counts=0)
        spool.flush(obs)
        fresh, _, _, _ = read_spool_frames(spool.path, offset)
        assert len(fresh) == 1
        assert fresh[0]["t"] == "events"


def write_frames(path, payloads):
    """A spool file whose lines are ``payloads``, each correctly framed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(frame_line(payload) + "\n"
                            for payload in payloads), encoding="utf-8")


META = json.dumps({"t": "meta", "session": "s1", "worker": "w0", "pid": 7})


class TestFramedLinesDecodeOrSkip:
    """A correctly framed spool line is folded or skipped, never raised
    on: the CRC only proves the bytes are the ones a writer framed."""

    @pytest.mark.parametrize("payload", [
        '{"t": "meta", "session": "s2", "pid": ' + "9" * 5000 + "}",
        '{"t": "events", "session": "s1", "events": '
        + "[" * 100_000 + "]" * 100_000 + "}",
        '{"t": "events", "session": "s1", "events": 5}',
        '{"t": "spans", "session": "s1", "spans": 7}',
        '{"t": "metrics", "session": [1], "snapshot": {}}',
        '{"t": "events", "session": "s1", "events": [5]}',
        '{"t": "meta", "worker": "w0"}',
    ], ids=["digit-limit", "deep-nesting", "events-int", "spans-int",
            "session-list", "event-int", "meta-without-session"])
    def test_hostile_frame_is_skipped(self, tmp_path, payload):
        path = tmp_path / ("w0" + SPOOL_SUFFIX)
        write_frames(path, [META, payload])
        content = read_spool(path)
        assert content.skipped == 1
        assert content.latest_session == "s1"
        assert content.worker == "w0"
        assert content.events == [] and content.spans == []

    @pytest.mark.parametrize("snapshot", [
        {"counters": 5},
        {"counters": {"x": 5}},
        {"histograms": {"h": {"a": 1}}},
    ], ids=["counters-int", "series-int", "histogram-series-int"])
    def test_ill_typed_snapshot_is_skipped_by_status(self, tmp_path,
                                                     snapshot):
        clock = FakeClock()
        make_queue(tmp_path, clock)
        good = {"t": "metrics", "session": "s1",
                "snapshot": {"counters": {"runs_total": {"": 2.0}}}}
        bad = {"t": "metrics", "session": "s2", "snapshot": snapshot}
        path = tmp_path / TELEMETRY_DIRNAME / ("w0" + SPOOL_SUFFIX)
        write_frames(path, [META, json.dumps(good), json.dumps(bad)])
        assert read_spool(path).skipped == 1
        aggregator = make_aggregator(tmp_path, clock)
        assert aggregator.refresh()
        view = aggregator.view()
        assert view.counters == {"runs_total": 2.0}
        # The rejected snapshot decoded as a line, so status reports it
        # as a skipped record, not a skipped line.
        assert view.telemetry["records_skipped"] == 1
        assert view.telemetry["lines_skipped"] == 0
        assert view.telemetry["frames"] == 3
        assert "runs_total 2" in aggregator.to_prometheus()

    @settings(max_examples=150, deadline=None)
    @given(frames=st.lists(SPOOL_FRAMES, max_size=6))
    def test_arbitrary_framed_json_is_folded_or_skipped(self, frames):
        clock = FakeClock()
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            make_queue(root, clock)
            path = root / TELEMETRY_DIRNAME / ("w0" + SPOOL_SUFFIX)
            write_frames(path, [json.dumps(frame) for frame in frames])
            content = read_spool(path)
            aggregator = make_aggregator(root, clock)
            assert aggregator.refresh()
            view = aggregator.view(recent_events=100)
            view.to_json()
            render_status(view)
            aggregator.to_prometheus()
        assert content.latest_session is None \
            or isinstance(content.latest_session, str)
        assert all(isinstance(event.name, str) for event in content.events)
        assert all(isinstance(span.name, str) for span in content.spans)
