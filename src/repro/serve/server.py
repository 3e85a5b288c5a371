"""Asyncio ingest server: live loop detection for a device fleet.

One :class:`StreamIngestServer` multiplexes many concurrent device
streams over length-framed JSONL: each frame is an ASCII decimal byte
count terminated by ``\\n`` followed by exactly that many bytes of one
UTF-8 JSON object.  The explicit length makes truncation detectable,
bounds per-frame memory up front (oversized frames are rejected before
they are read), and keeps the payloads ordinary trace-JSONL record
objects.

Request frames (``stream`` ids are scoped to their connection)::

    {"op": "open",   "stream": ID, "meta": {...}?}      -> ok frame
    {"op": "record", "stream": ID, "record": {record}}  -> no reply
    {"op": "close",  "stream": ID, "end_time_s": T?}    -> verdict frame
    {"op": "ping"}                                      -> ok frame

Response frames::

    {"op": "ok", "stream": ID?}
    {"op": "verdict", "stream": ID, "verdict": {...}}   (StreamVerdict)
    {"op": "error", "stream": ID?, "error": "..."}      (stream dropped)

A malformed frame for one stream (an undecodable record, an open with
an undecodable ``meta``, a close with a non-numeric or non-finite
``end_time_s``) gets an error frame and ends only that stream; the
connection and its other streams carry on.

Each stream runs an :class:`IncrementalAnalyzer` with the server's
dedup ``horizon``, so per-stream memory is bounded no matter how long
a device stays connected.  Backpressure is structural:
records are analyzed inline before the next frame is read, so a slow
analysis stalls the reader, fills the kernel socket buffer, and blocks
the sender — no unbounded queue anywhere.  ``max_streams`` caps
concurrently open streams server-wide (opens beyond it get an error
frame), ``max_frame_bytes`` caps a single frame.

Loop transitions surface through the active :mod:`repro.obs` event
plane (``stream.loop_onset`` / ``stream.loop_update`` /
``stream.loop_end``, carrying the stream id and detection shape) and
the metrics registry (``stream_*`` counters, per-stream
``stream_dedup_elements`` gauges); :func:`serve_metrics` exposes the
registry as a Prometheus ``/metrics`` endpoint, matching the surface
``repro status --serve`` already provides for campaigns.
"""

from __future__ import annotations

import asyncio
import json

from repro.core.incremental import IncrementalAnalyzer, check_disorder_mode
from repro.core.loops import check_detector_settings
from repro.obs import Instrumentation, get_instrumentation, instrumented
from repro.obs.httpd import PROMETHEUS_TYPE, HardenedHTTPServer, serve_http
from repro.resilience.errors import TraceParseError
from repro.traces.parser import parse_metadata, parse_record
from repro.traces.records import finite_float

__all__ = [
    "FrameError",
    "StreamIngestServer",
    "encode_frame",
    "read_frame",
    "serve_metrics",
]

#: Default cap on one frame's payload (1 MiB — a record line is ~100 B).
MAX_FRAME_BYTES = 1 << 20

#: Default dedup-ring horizon per stream (bounds memory AND the longest
#: detectable loop period at ``horizon // min_repetitions``).
DEFAULT_HORIZON = 4096


class FrameError(ValueError):
    """A violation of the length-framed JSONL protocol."""


def encode_frame(payload: dict) -> bytes:
    """One length-framed JSON frame: ``b"<len>\\n<json>"``."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return b"%d\n%s" % (len(body), body)


async def read_frame(reader: asyncio.StreamReader,
                     max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as error:
        raise FrameError(f"unreadable frame header: {error}") from error
    if not header:
        return None
    try:
        length = int(header)
    except ValueError:
        raise FrameError(f"bad frame header {header!r}") from None
    if length < 0 or length > max_bytes:
        raise FrameError(f"frame of {length} bytes exceeds the "
                         f"{max_bytes}-byte cap")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError(
            f"truncated frame: wanted {length} bytes, "
            f"got {len(error.partial)}") from error
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError) as error:
        raise FrameError(f"frame is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise FrameError("frame payload must be a JSON object")
    return payload


class StreamIngestServer:
    """The fleet ingest service (see module docstring)."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 horizon: int | None = DEFAULT_HORIZON,
                 min_repetitions: int = 2,
                 max_streams: int = 10_000,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 on_disorder: str = "recover",
                 obs: Instrumentation | None = None) -> None:
        # Every stream's analyzer is built from these settings, so
        # refuse them here rather than at each stream's ``open``.
        check_detector_settings(min_repetitions, horizon)
        check_disorder_mode(on_disorder)
        self.host = host
        self.port = port
        self.horizon = horizon
        self.min_repetitions = min_repetitions
        self.max_streams = max_streams
        self.max_frame_bytes = max_frame_bytes
        self.on_disorder = on_disorder
        self._obs = obs
        self._server: asyncio.AbstractServer | None = None
        self._open_streams = 0
        self._connections = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        # Connection-handler tasks don't inherit the caller's context
        # reliably, so the instrumentation bundle is re-entered here.
        if self._obs is not None:
            with instrumented(self._obs):
                await self._serve_connection(reader, writer)
        else:
            await self._serve_connection(reader, writer)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        obs = get_instrumentation()
        registry = obs.registry
        registry.counter("stream_connections_total").inc()
        self._connections += 1
        streams: dict[str, IncrementalAnalyzer] = {}
        try:
            while True:
                try:
                    frame = await read_frame(reader, self.max_frame_bytes)
                except FrameError as error:
                    # Framing is unrecoverable mid-stream: report + drop.
                    registry.counter("stream_frame_errors_total").inc()
                    await self._send(writer, {"op": "error",
                                              "error": str(error)})
                    break
                if frame is None:
                    break
                reply = self._dispatch(frame, streams, obs)
                if reply is not None:
                    await self._send(writer, reply)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections -= 1
            if streams:
                # Client vanished with open streams: account + release.
                registry.counter("stream_aborted_total").inc(len(streams))
                for stream_id in list(streams):
                    self._drop_stream(stream_id, streams, registry)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: dict) -> None:
        writer.write(encode_frame(payload))
        await writer.drain()

    def _drop_stream(self, stream_id: str,
                     streams: dict[str, IncrementalAnalyzer],
                     registry) -> None:
        streams.pop(stream_id, None)
        self._open_streams -= 1
        registry.gauge("stream_open_streams").set(self._open_streams)
        registry.gauge("stream_dedup_elements").set(0, stream=stream_id)

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, frame: dict,
                  streams: dict[str, IncrementalAnalyzer],
                  obs: Instrumentation) -> dict | None:
        registry = obs.registry
        op = frame.get("op")
        if op == "ping":
            return {"op": "ok"}
        stream_id = frame.get("stream")
        if not isinstance(stream_id, str) or not stream_id:
            return {"op": "error", "error": "missing stream id"}

        if op == "open":
            if stream_id in streams:
                return {"op": "error", "stream": stream_id,
                        "error": f"stream {stream_id!r} is already open"}
            if self._open_streams >= self.max_streams:
                registry.counter("stream_rejected_total").inc()
                return {"op": "error", "stream": stream_id,
                        "error": f"server at max_streams="
                                 f"{self.max_streams}"}
            try:
                parse_metadata(frame.get("meta") or {})
            except TraceParseError as error:
                return {"op": "error", "stream": stream_id,
                        "error": str(error)}
            streams[stream_id] = IncrementalAnalyzer(
                min_repetitions=self.min_repetitions,
                horizon=self.horizon,
                on_disorder=self.on_disorder,
                on_event=self._event_emitter(stream_id, obs),
            )
            self._open_streams += 1
            registry.counter("stream_opened_total").inc()
            registry.gauge("stream_open_streams").set(self._open_streams)
            return {"op": "ok", "stream": stream_id}

        analyzer = streams.get(stream_id)
        if analyzer is None:
            return {"op": "error", "stream": stream_id,
                    "error": f"stream {stream_id!r} is not open"}

        if op == "record":
            try:
                record = parse_record(frame.get("record") or {})
                analyzer.feed(record)
            except TraceParseError as error:
                # Strict servers drop the stream on the first bad or
                # out-of-order record; recover-mode analyzers only
                # raise for genuinely undecodable payloads.
                registry.counter("stream_record_errors_total").inc()
                self._drop_stream(stream_id, streams, registry)
                return {"op": "error", "stream": stream_id,
                        "error": str(error)}
            registry.counter("stream_records_total").inc()
            registry.gauge("stream_dedup_elements").set(
                len(analyzer.detector), stream=stream_id)
            return None

        if op == "close":
            end_time = frame.get("end_time_s")
            self._drop_stream(stream_id, streams, registry)
            try:
                end_time = None if end_time is None else finite_float(end_time)
            except (TypeError, ValueError, OverflowError):
                return {"op": "error", "stream": stream_id,
                        "error": f"malformed end_time_s {end_time!r}"}
            verdict = analyzer.finalize(end_time)
            registry.counter("stream_verdicts_total").inc(
                kind=verdict.detection.kind.value)
            return {"op": "verdict", "stream": stream_id,
                    "verdict": verdict.to_dict()}

        return {"op": "error", "stream": stream_id,
                "error": f"unknown op {op!r}"}

    def _event_emitter(self, stream_id: str, obs: Instrumentation):
        registry = obs.registry
        events = obs.events

        def emit(name: str, **fields) -> None:
            registry.counter("stream_loop_events_total").inc(event=name)
            if name == "loop_onset":
                registry.counter("stream_loop_onsets_total").inc()
            events.emit(f"stream.{name}", severity="info",
                        stream=stream_id, **fields)

        return emit


# ----------------------------------------------------------------------
# Prometheus /metrics endpoint
# ----------------------------------------------------------------------


def serve_metrics(registry, port: int, host: str = "127.0.0.1",
                  request_timeout_s: float = 30.0) -> HardenedHTTPServer:
    """``GET /metrics`` -> the registry's live Prometheus exposition.

    Same contract as :func:`repro.obs.aggregate.serve_status`: the
    caller owns the returned server (``serve_forever`` / ``shutdown``).
    Runs in its own thread(s), so scrapes never stall the asyncio
    ingest loop.
    """

    def handle(method: str, path: str, body: bytes) -> tuple[int, str, bytes]:
        if path.split("?", 1)[0].rstrip("/") not in ("", "/metrics"):
            return 404, "text/plain", b"unknown path (try /metrics)\n"
        return 200, PROMETHEUS_TYPE, registry.to_prometheus().encode("utf-8")

    return serve_http(handle, port, host, request_timeout_s)
