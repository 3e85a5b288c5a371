"""Structured event log: emission, correlation, sinks, logging bridge."""

import io
import json
import logging

from repro.obs.events import (
    NULL_EVENTS,
    Event,
    EventLog,
    StderrEventSink,
    attach_logging_bridge,
    detach_logging_bridge,
    severity_rank,
)
from tests.test_obs_metrics import FakeClock


def make_log(**kwargs):
    clock = FakeClock()
    return EventLog(clock=clock, wall_clock=lambda: 1700000000.0 + clock(),
                    **kwargs), clock


class TestEmission:
    def test_emit_stamps_seq_and_both_clocks(self):
        log, clock = make_log()
        clock.advance(1.5)
        event = log.emit("queue.claim", run_key=("OP_V", "A9", "L", 0),
                         token=3, seq_field=7)
        assert event.seq == 1
        assert event.mono_s == 1.5
        assert event.wall_s == 1700000001.5
        assert event.run_key == ("OP_V", "A9", "L", 0)
        assert event.token == 3
        assert event.fields == {"seq_field": 7}
        assert log.emit("next").seq == 2

    def test_bound_correlation_is_stamped_and_unbindable(self):
        log, _ = make_log()
        log.bind(campaign="abcd1234", worker="w0")
        event = log.emit("worker.claim")
        assert (event.campaign, event.worker) == ("abcd1234", "w0")
        # An explicit worker beats the bound default.
        assert log.emit("steal", worker="w1").worker == "w1"
        log.bind(worker=None)
        assert log.emit("later").worker is None
        assert log.emit("later").campaign == "abcd1234"

    def test_ring_buffer_evicts_oldest_but_seq_keeps_counting(self):
        log, _ = make_log(capacity=3)
        for index in range(5):
            log.emit(f"e{index}")
        assert len(log) == 3
        assert [event.name for event in log.recent()] == ["e2", "e3", "e4"]
        assert log.emit("e5").seq == 6

    def test_since_returns_only_newer_events(self):
        log, _ = make_log()
        marker = log.emit("a").seq
        log.emit("b")
        last = log.emit("c").seq
        assert [event.name for event in log.since(marker)] == ["b", "c"]
        assert log.since(last) == []

    def test_recent_filters_by_severity_then_limits(self):
        log, _ = make_log()
        log.emit("dbg", severity="debug")
        log.emit("warn1", severity="warning")
        log.emit("info", severity="info")
        log.emit("warn2", severity="warning")
        names = [event.name
                 for event in log.recent(limit=1, min_severity="warning")]
        assert names == ["warn2"]

    def test_severity_rank_defaults_unknown_to_info(self):
        assert severity_rank("error") > severity_rank("warning")
        assert severity_rank("bogus") == severity_rank("info")


class TestSerialization:
    def test_jsonl_round_trip_preserves_correlation(self):
        log, _ = make_log()
        log.bind(campaign="feed0000")
        event = log.emit("run.retry", severity="warning",
                         run_key=("OP_T", "A1", "L2", 3), token=2, attempt=1)
        # What the telemetry spools write and replay: one JSON line.
        back = Event.from_dict(json.loads(json.dumps(event.to_dict())))
        assert back.name == "run.retry"
        assert back.severity == "warning"
        assert back.campaign == "feed0000"
        assert back.run_key == ("OP_T", "A1", "L2", 3)
        assert back.token == 2
        assert back.fields == {"attempt": 1}

    def test_to_dict_omits_unset_correlation(self):
        record = Event(name="bare").to_dict()
        assert set(record) == {"name", "severity", "seq", "wall_s", "mono_s"}

    def test_render_is_one_line_with_key_and_fields(self):
        event = Event(name="queue.run_stolen", severity="warning",
                      worker="w1", run_key=("OP_V", "A9", "L", 0),
                      token=2, fields={"seq": 4})
        line = event.render()
        assert "\n" not in line
        assert "WARNING" in line
        assert "queue.run_stolen" in line
        assert "worker=w1" in line
        assert "key=OP_V/A9/L/0" in line
        assert "token=2" in line
        assert "seq=4" in line


class TestSinks:
    def test_sinks_receive_every_emitted_event(self):
        log, _ = make_log()
        seen = []
        log.add_sink(seen.append)
        log.emit("one")
        log.emit("two", severity="debug")
        assert [event.name for event in seen] == ["one", "two"]

    def test_stderr_sink_filters_below_min_severity(self):
        stream = io.StringIO()
        sink = StderrEventSink(min_severity="warning", stream=stream)
        sink(Event(name="quiet", severity="info"))
        sink(Event(name="loud", severity="error"))
        assert "quiet" not in stream.getvalue()
        assert "loud" in stream.getvalue()

    def test_stderr_sink_json_mode_emits_parseable_lines(self):
        stream = io.StringIO()
        sink = StderrEventSink(min_severity="debug", json_mode=True,
                               stream=stream)
        sink(Event(name="a", severity="debug", seq=1))
        record = json.loads(stream.getvalue())
        assert record["name"] == "a"

    def test_stderr_sink_survives_a_closed_stream(self):
        stream = io.StringIO()
        stream.close()
        StderrEventSink(stream=stream)(Event(name="x"))  # must not raise


class TestNullLog:
    def test_null_log_is_inert(self):
        assert NULL_EVENTS.enabled is False
        event = NULL_EVENTS.emit("anything", severity="error", extra=1)
        assert event.name == "null"
        assert len(NULL_EVENTS) == 0
        assert NULL_EVENTS.recent() == []
        assert NULL_EVENTS.since(0) == []


class TestLoggingBridge:
    def test_bridge_captures_package_warnings_as_events(self):
        log, _ = make_log()
        handler = attach_logging_bridge(log, logger_name="repro")
        try:
            logging.getLogger("repro.campaign.worker").warning(
                "completion for task %d fenced off", 4)
            [event] = log.recent()
            assert event.name == "log.worker"
            assert event.severity == "warning"
            assert "task 4 fenced off" in event.fields["message"]
            assert logging.getLogger("repro").propagate is False
        finally:
            detach_logging_bridge(handler, logger_name="repro")
        assert logging.getLogger("repro").propagate is True

    def test_a_record_repeating_the_newest_event_is_not_bridged(self):
        log, _ = make_log()
        handler = attach_logging_bridge(log, logger_name="repro")
        logger = logging.getLogger("repro.resilience.checkpoint")
        try:
            log.emit("checkpoint.lines_skipped", severity="warning",
                     skipped=1)
            logger.warning("checkpoint c: skipped 1 corrupt line(s)",
                           extra={"event": "checkpoint.lines_skipped"})
            assert [event.name for event in log.recent()] \
                == ["checkpoint.lines_skipped"]
            # Its event went to another log (the null one, say): the
            # record is the only report, so it is bridged.
            logger.warning("task queue q: skipped corrupt spool line",
                           extra={"event": "queue.spool_corrupt_line"})
            assert [event.name for event in log.recent()] \
                == ["checkpoint.lines_skipped", "log.checkpoint"]
        finally:
            detach_logging_bridge(handler, logger_name="repro")
