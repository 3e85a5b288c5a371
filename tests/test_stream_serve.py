"""End-to-end tests for the live stream ingest plane (repro.serve).

The headline test is the ISSUE's CI smoke shape run in-process: start
the asyncio ingest server, replay 24 simulated device streams
concurrently (multiplexed over a handful of connections), and assert
that every stream's live verdict and loop-onset events agree with the
batch ``analyze_trace`` verdict on the same records, with per-stream
gauges visible on the Prometheus surface.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.cell import Rat
from repro.cli import main
from repro.core.pipeline import analyze_trace
from repro.obs import make_instrumentation
from repro.serve import (
    FrameError,
    StreamIngestServer,
    encode_frame,
    read_frame,
    replay_traces_async,
    serve_metrics,
)
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.records import (
    RrcReleaseRecord,
    RrcSetupCompleteRecord,
)
from tests.conftest import cell_id

NR_CELL = cell_id(393, 521310)
NR_CELL_B = cell_id(104, 501390)
LTE_CELL = cell_id(380, 5145, Rat.LTE)


def _loop_trace(cycles: int, seed: int, exit_after: bool) -> SignalingTrace:
    """setup/release cycles => a 5G ON-OFF loop; optionally exit it."""
    trace = SignalingTrace(metadata=TraceMetadata(
        operator="OP_T", area="A1", location=f"L{seed}", run_seed=seed))
    t = float(seed % 3)  # desynchronise the streams a little
    for _ in range(cycles):
        trace.append(RrcSetupCompleteRecord(time_s=t, cell=NR_CELL))
        trace.append(RrcReleaseRecord(time_s=t + 4.0))
        t += 8.0
    if exit_after:
        trace.append(RrcSetupCompleteRecord(time_s=t, cell=NR_CELL_B))
        trace.append(RrcSetupCompleteRecord(time_s=t + 6.0, cell=LTE_CELL))
    return trace


def _steady_trace(seed: int) -> SignalingTrace:
    """One setup, no cycling: no loop."""
    trace = SignalingTrace(metadata=TraceMetadata(
        operator="OP_T", area="A1", location=f"S{seed}", run_seed=seed))
    trace.append(RrcSetupCompleteRecord(time_s=0.0, cell=NR_CELL))
    trace.append(RrcReleaseRecord(time_s=30.0))
    return trace


def _fleet(count: int = 24) -> dict[str, SignalingTrace]:
    traces = {}
    for index in range(count):
        shape = index % 3
        if shape == 0:
            trace = _loop_trace(3 + index % 3, index, exit_after=False)
        elif shape == 1:
            trace = _loop_trace(2 + index % 2, index, exit_after=True)
        else:
            trace = _steady_trace(index)
        traces[f"dev-{index:02d}"] = trace
    return traces


async def _serve_and_replay(traces, *, obs=None, connections=5, **kwargs):
    server = StreamIngestServer(obs=obs, **kwargs)
    await server.start()
    try:
        host, port = server.address
        return await replay_traces_async(host, port, traces,
                                         connections=connections)
    finally:
        await server.stop()


def _read_raw(raw: bytes, **kwargs):
    """Run read_frame over a pre-fed in-memory reader."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_frame(reader, **kwargs)
    return asyncio.run(go())


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame({"op": "ping", "x": [1, 2]})
        assert _read_raw(frame) == {"op": "ping", "x": [1, 2]}

    def test_eof_at_boundary_is_none(self):
        assert _read_raw(b"") is None

    @pytest.mark.parametrize("raw", [
        b"xyz\n{}",                      # non-numeric header
        b"5\n{}",                        # truncated body
        b"2\nhi",                        # not JSON
        b"2\n[]" + b"0\n",               # JSON but not an object
        pytest.param(b"5000\n" + b"1" * 5000, id="huge-int"),
        pytest.param(b"100000\n" + b"[" * 100_000, id="deep-nesting"),
        pytest.param(b'8\n{"a":"\xff"}', id="not-utf8"),
    ])
    def test_protocol_violations_raise(self, raw):
        with pytest.raises(FrameError):
            _read_raw(raw)

    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(max_size=120) | st.builds(
        lambda length, body, rest: str(length).encode() + b"\n" + body + rest,
        st.integers(-3, 150), st.binary(max_size=100),
        st.binary(max_size=20)) | st.builds(
        lambda frame, rest: frame + rest,
        st.dictionaries(st.text(max_size=5), st.integers() | st.text(
            max_size=5), max_size=3).map(encode_frame),
        st.binary(max_size=20)))
    def test_any_byte_stream_gives_a_dict_none_or_frame_error(self, raw):
        try:
            frame = _read_raw(raw, max_bytes=128)
        except FrameError:
            return
        if frame is None:
            assert raw == b""  # a clean EOF: nothing was sent
        else:
            assert isinstance(frame, dict)

    def test_oversized_frame_rejected_before_read(self):
        with pytest.raises(FrameError, match="cap"):
            _read_raw(b"999999999\n", max_bytes=1024)


class TestIngestE2E:
    def test_fleet_verdicts_match_batch(self):
        """The acceptance smoke: >=20 concurrent streams, live verdicts
        and loop-onset events equal to batch analyze_trace on every one."""
        traces = _fleet(24)
        batch = {sid: analyze_trace(trace).detection
                 for sid, trace in traces.items()}
        obs = make_instrumentation()
        results = asyncio.run(_serve_and_replay(traces, obs=obs))

        assert set(results) == set(traces)
        for stream_id, result in results.items():
            assert result.error is None, (stream_id, result.error)
            expected = batch[stream_id]
            assert result.kind == expected.kind.value, stream_id
            if expected.is_loop:
                assert result.verdict["period"] == expected.period
                assert result.verdict["repetitions"] == expected.repetitions
                assert result.verdict["start_index"] == expected.start_index

        # Loop onsets were emitted live for exactly the looping streams.
        onsets = {event.fields["stream"]
                  for event in obs.events.recent(limit=10_000)
                  if event.name == "stream.loop_onset"}
        looping = {sid for sid, det in batch.items() if det.is_loop}
        assert onsets == looping
        assert len(looping) >= 10  # the fixture really exercises loops

        # Per-stream gauges + counters are on the Prometheus surface.
        prom = obs.registry.to_prometheus()
        assert 'stream_dedup_elements{stream="dev-00"}' in prom
        assert "stream_verdicts_total" in prom
        assert "stream_open_streams 0" in prom  # all closed at the end

    def test_metrics_http_surface(self):
        traces = _fleet(6)
        obs = make_instrumentation()
        asyncio.run(_serve_and_replay(traces, obs=obs))
        server = serve_metrics(obs.registry, 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with urllib.request.urlopen(
                    f"http://{host}:{port}/metrics") as response:
                body = response.read().decode("utf-8")
            assert response.status == 200
            assert "stream_opened_total 6" in body
            assert 'stream_dedup_elements{stream="dev-00"}' in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"http://{host}:{port}/nope")
        finally:
            server.shutdown()
            server.server_close()

    def test_horizon_bounds_memory_but_not_verdicts_here(self):
        traces = _fleet(6)
        batch = {sid: analyze_trace(trace).detection
                 for sid, trace in traces.items()}
        results = asyncio.run(_serve_and_replay(traces, horizon=16))
        for stream_id, result in results.items():
            assert result.kind == batch[stream_id].kind.value


class TestProtocolErrors:
    async def _session(self, server, frames):
        """Send all frames, half-close, then drain every reply."""
        reader, writer = await asyncio.open_connection(*server.address)
        replies = []
        try:
            for frame in frames:
                writer.write(encode_frame(frame))
            await writer.drain()
            writer.write_eof()
            while (reply := await read_frame(reader)) is not None:
                replies.append(reply)
        finally:
            writer.close()
            await writer.wait_closed()
        return replies

    def _run(self, frames, **kwargs):
        async def go():
            server = StreamIngestServer(**kwargs)
            await server.start()
            try:
                return await self._session(server, frames)
            finally:
                await server.stop()
        return asyncio.run(go())

    def test_ping(self):
        assert self._run([{"op": "ping"}]) == [{"op": "ok"}]

    def test_record_without_open_errors(self):
        [reply] = self._run([{"op": "record", "stream": "s1",
                              "record": {"kind": "rrc_release",
                                         "time_s": 1.0}}])
        # record frames normally get no reply; the error IS the reply.
        assert reply["op"] == "error"
        assert "not open" in reply["error"]

    def test_double_open_errors(self):
        replies = self._run([{"op": "open", "stream": "s1"},
                             {"op": "open", "stream": "s1"}])
        assert replies[0]["op"] == "ok"
        assert replies[1]["op"] == "error"

    def test_missing_stream_id(self):
        [reply] = self._run([{"op": "open"}])
        assert reply["op"] == "error"

    def test_unknown_op(self):
        replies = self._run([{"op": "open", "stream": "s1"},
                             {"op": "flush", "stream": "s1"}])
        assert replies[1]["op"] == "error"
        assert "unknown op" in replies[1]["error"]

    def test_max_streams_rejection(self):
        replies = self._run([{"op": "open", "stream": "s1"},
                             {"op": "open", "stream": "s2"}],
                            max_streams=1)
        assert replies[0]["op"] == "ok"
        assert replies[1]["op"] == "error"
        assert "max_streams" in replies[1]["error"]

    def test_undecodable_record_drops_stream(self):
        replies = self._run([
            {"op": "open", "stream": "s1"},
            {"op": "record", "stream": "s1",
             "record": {"kind": "no_such_kind", "time_s": 1.0}},
            {"op": "close", "stream": "s1"},
        ])
        assert replies[0]["op"] == "ok"
        assert replies[1]["op"] == "error"       # the bad record
        assert replies[2]["op"] == "error"       # stream already dropped
        assert "not open" in replies[2]["error"]

    #: Frames for stream B that used to raise out of ``_dispatch`` and
    #: kill the connection task (raw JSON: ``1e400`` decodes to inf).
    BAD_B_FRAMES = {
        "record-kind-list":
            '{"op":"record","stream":"B","record":{"t":1.0,"kind":[]}}',
        "record-pci-1e400":
            '{"op":"record","stream":"B","record":{"t":1.0,'
            '"kind":"rrc_setup_complete",'
            '"cell":{"pci":1e400,"ch":521310,"rat":"5G"}}}',
        "close-end-time-string":
            '{"op":"close","stream":"B","end_time_s":"x"}',
        "close-end-time-infinite":
            '{"op":"close","stream":"B","end_time_s":1e400}',
        "open-meta-run-seed-string":
            '{"op":"open","stream":"B","meta":{"run_seed":"x"}}',
    }

    @pytest.mark.parametrize("bad", sorted(BAD_B_FRAMES))
    def test_bad_frame_ends_only_its_own_stream(self, bad):
        """Streams A and B share one connection; one malformed frame
        for B gets an error reply for B, and A still gets its verdict."""
        trace = _loop_trace(3, 0, exit_after=False)
        records = [record.to_dict() for record in trace.records]
        half = len(records) // 2
        bad_frame = self.BAD_B_FRAMES[bad].encode("utf-8")
        opens_b = bad.startswith("open")

        async def go():
            server = StreamIngestServer()
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    *server.address)
                frames = [encode_frame({"op": "open", "stream": "A"})]
                if not opens_b:
                    frames.append(encode_frame({"op": "open", "stream": "B"}))
                for record in records[:half]:
                    frames.append(encode_frame(
                        {"op": "record", "stream": "A", "record": record}))
                frames.append(b"%d\n%s" % (len(bad_frame), bad_frame))
                for record in records[half:]:
                    frames.append(encode_frame(
                        {"op": "record", "stream": "A", "record": record}))
                frames.append(encode_frame({"op": "close", "stream": "A"}))
                writer.write(b"".join(frames))
                await writer.drain()
                writer.write_eof()
                replies = []
                while (reply := await read_frame(reader)) is not None:
                    replies.append(reply)
                writer.close()
                await writer.wait_closed()
                return replies
            finally:
                await server.stop()

        replies = asyncio.run(go())
        b_replies = [reply for reply in replies if reply.get("stream") == "B"]
        expected_b = ["error"] if opens_b else ["ok", "error"]
        assert [reply["op"] for reply in b_replies] == expected_b
        [verdict] = [reply["verdict"] for reply in replies
                     if reply["op"] == "verdict"]
        batch = analyze_trace(trace).detection
        assert batch.is_loop
        assert verdict["kind"] == batch.kind.value
        assert verdict["period"] == batch.period
        assert verdict["repetitions"] == batch.repetitions
        assert verdict["start_index"] == batch.start_index

    def test_bad_frame_ends_connection(self):
        async def go():
            server = StreamIngestServer()
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    *server.address)
                writer.write(b"not-a-length\n")
                await writer.drain()
                reply = await read_frame(reader)
                assert reply["op"] == "error"
                assert await read_frame(reader) is None  # connection done
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
        asyncio.run(go())

    def test_verdict_roundtrips_as_json(self):
        trace = _loop_trace(3, 0, exit_after=False)
        batch = analyze_trace(trace).detection
        results = asyncio.run(_serve_and_replay({"d": trace}))
        verdict = results["d"].verdict
        assert json.loads(json.dumps(verdict)) == verdict
        assert verdict["kind"] == batch.kind.value


class TestDetectorSettings:
    """Settings no stream's analyzer could honour are refused when the
    server is configured, not at every ``open``."""

    @pytest.mark.parametrize("kwargs", [{"min_repetitions": 0},
                                        {"min_repetitions": 1},
                                        {"horizon": 3},
                                        {"on_disorder": "bogus"}])
    def test_constructor_refuses(self, kwargs):
        with pytest.raises(ValueError):
            StreamIngestServer(**kwargs)

    @pytest.mark.parametrize("flags", [["--min-repetitions", "0"],
                                       ["--horizon", "3"],
                                       ["--horizon", "-5"]])
    def test_serve_command_exits_with_one_error_line(self, flags):
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "repro", "stream", "serve", *flags],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""  # no address: the server never bound
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestServeCommand:
    """``repro stream serve`` as its own process, fed by ``repro stream
    replay``: 20 simulated device traces over 5 connections."""

    def start_server(self, events_out):
        """The server process and the two lines it prints first: its
        ``HOST:PORT`` and its ``/metrics`` URL."""
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "stream", "serve",
             "--metrics-port", "0", "--events-out", str(events_out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        lines = []

        def read_lines():
            lines.extend(proc.stdout.readline().strip() for _ in range(2))

        reader = threading.Thread(target=read_lines, daemon=True)
        reader.start()
        reader.join(timeout=60)
        if len(lines) < 2 or not all(lines):
            proc.kill()
            raise AssertionError(f"server printed {lines}: "
                                 f"{proc.communicate()[1]}")
        return proc, lines[0], lines[1]

    def test_replay_matches_batch_and_sigterm_exits_143(self, tmp_path,
                                                         capsys):
        streams = tmp_path / "streams"
        streams.mkdir()
        for index in range(20):
            assert main(["simulate", "--operator",
                         ("OP_A", "OP_T", "OP_V")[index % 3],
                         "--duration", "180",
                         "--location-index", str(index),
                         "--run-index", str(index),
                         "--out", str(streams / f"dev-{index}.jsonl")]) == 0
        capsys.readouterr()
        events = tmp_path / "events.jsonl"
        proc, address, metrics_url = self.start_server(events)
        try:
            assert main(["stream", "replay", address,
                         *sorted(map(str, streams.glob("*.jsonl"))),
                         "--connections", "5"]) == 0
            live = json.loads(capsys.readouterr().out)
            with urllib.request.urlopen(metrics_url) as response:
                prom = response.read().decode("utf-8")
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        assert code == 143  # graceful stop on SIGTERM

        assert len(live) == 20
        assert all(entry["error"] is None for entry in live.values())
        batch = {path.stem: analyze_trace(SignalingTrace.load(path))
                 .detection for path in streams.glob("*.jsonl")}
        for stream_id, detection in batch.items():
            verdict = live[stream_id]["verdict"]
            assert verdict["kind"] == detection.kind.value, stream_id
            if detection.is_loop:
                assert verdict["period"] == detection.period
                assert verdict["repetitions"] == detection.repetitions
                assert verdict["start_index"] == detection.start_index
        onsets = {event["fields"]["stream"]
                  for event in map(json.loads,
                                   events.read_text().splitlines())
                  if event["name"] == "stream.loop_onset"}
        looping = {sid for sid, det in batch.items() if det.is_loop}
        assert onsets == looping
        assert len(looping) >= 3
        assert 'stream_dedup_elements{stream="dev-0"}' in prom
        assert "stream_verdicts_total" in prom
        assert "stream_open_streams 0" in prom
