"""The benchmark's four workloads.

Each workload sets up (several times, so ``setup_s`` is a median),
measures passes over one fixed seeded input until ``--seconds`` are
spent, and checks every pass's outputs.  All of them drive device
OnePlus 12R over stationary runs in six areas: OP_T A1 (69 cells, SA)
and A2, OP_A A6 and A7, OP_V A9 and A10 (NSA).  The seed goes into
``CampaignConfig.seed``, which places the test locations.  README.md
says why each workload exists.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import signal
import select
import statistics
import subprocess
import sys
import time
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Iterator

from repro.campaign import CampaignConfig, CampaignRunner, operator
from repro.core.pipeline import analyze_trace
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.traces.parser import parse_trace
from repro.serve.server import encode_frame, read_frame

from perfbench import layers
from perfbench.calibration import probe, to_reference
from perfbench.spans import SpanLog, SpanTable, install

AREAS = ["A1", "A2", "A6", "A7", "A9", "A10"]
OPERATORS = ("OP_T", "OP_A", "OP_V")
DEVICE = "OnePlus 12R"
CONNECTIONS = 2


@dataclass(frozen=True)
class Scale:
    """Input sizes: ``locations`` per area, one run each."""

    locations: int
    duration_s: int
    broker_locations: int
    broker_duration_s: int
    replicas: int
    setups: int


FULL = Scale(locations=1, duration_s=300, broker_locations=6,
             broker_duration_s=10, replicas=8, setups=3)
#: Seconds-long smoke scale for the benchmark's own tests.
TINY = Scale(locations=1, duration_s=60, broker_locations=1,
             broker_duration_s=10, replicas=2, setups=2)


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    scale: Scale


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``rates`` and ``setup_s`` hold each pass's throughput and each
    set-up's duration in host seconds, ``scaled`` and ``setup_scaled``
    the same in reference seconds (see :mod:`perfbench.calibration`),
    ``probes`` every probe taken around the measured passes.
    """

    rates: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    setup_scaled: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    tables: list[SpanTable] = field(default_factory=list)
    passes: int = 0
    extras: dict[str, float] = field(default_factory=dict)
    #: Mean trace records per run, relating runs_per_s to records_per_s.
    records_per_run: float = 0.0

    def check(self, ok: bool, units: int, what: str) -> None:
        """Count ``units`` operations, all failed unless ``ok``."""
        self.attempted += units
        if not ok:
            self.failed += units
            self.notes.append(f"FAILED: {what}")


def measure(seconds: float, one_pass: Callable[[], tuple[float, float]],
            out: Outcome, prepare: Callable[[], None] | None = None,
            cpus: Collection[int] | None = None) -> list[float]:
    """Run passes until the next would overshoot ``seconds`` by more
    than stopping undershoots it (always at least one).

    ``one_pass`` returns its timed duration and the work it completed;
    each pass's throughput is recorded as measured and scaled by the
    mean of the probes taken just before and after it.  ``prepare``, if
    given, runs untimed before each pass (starting its processes), and
    the pass's first probe follows it.  ``cpus`` are the CPUs to probe
    (default: all this process may use).  Returns the durations.
    """
    durations: list[float] = []
    before = None
    while True:
        if prepare is not None:
            prepare()
            before = None
        if before is None:
            before = probe(cpus)
            out.probes.append(before)
        elapsed, work = one_pass()
        after = probe(cpus)
        out.probes.append(after)
        durations.append(elapsed)
        out.rates.append(work / elapsed)
        out.scaled.append(work / to_reference(elapsed, before, after))
        before = after
        left = seconds - sum(durations)
        if left <= durations[-1] / 2:
            return durations


def _config(ctx: Context, **knobs) -> CampaignConfig:
    scale = ctx.scale
    locations = knobs.pop("locations", scale.locations)
    return CampaignConfig(
        device_name=DEVICE, area_names=list(AREAS), seed=ctx.seed,
        duration_s=knobs.pop("duration_s", scale.duration_s),
        locations_per_area=locations, a1_locations=locations,
        runs_per_location=1, a1_runs_per_location=1, **knobs)


def _profiles():
    return [operator(name) for name in OPERATORS]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _records_per_run(checkpoint: Path) -> float:
    """Mean records per checkpointed trace (v1 lines: ``<crc> <json>``;
    a trace is a metadata line plus one line per record)."""
    counts = []
    for line in checkpoint.read_text(encoding="utf-8").splitlines():
        trace = json.loads(line.split(" ", 1)[1]).get("trace")
        if trace:
            counts.append(trace.count("\n") - 1)
    return sum(counts) / len(counts)


def same(a, b) -> bool:
    """Deep equality that treats NaN as equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(
            same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same(a[k], b[k]) for k in a)
    return a == b


def _run_key(run) -> tuple:
    meta = run.metadata
    return meta.operator, meta.area, meta.location, meta.run_seed


@contextmanager
def _setup(out: Outcome) -> Iterator[None]:
    """Time one set-up repetition, in host and reference seconds."""
    before = probe()
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    out.setup_s.append(elapsed)
    out.setup_scaled.append(to_reference(elapsed, before, probe()))


@contextmanager
def _traced(out: Outcome, targets) -> Iterator[None]:
    """Wrap ``targets`` in this process for the block; keep its spans."""
    log = SpanLog()
    installed = install(log, targets)
    try:
        yield
    finally:
        installed.uninstall()
        out.tables.append(log.table())


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------


def campaign(ctx: Context) -> Outcome:
    out = Outcome()
    checkpoint = ctx.work / "campaign.ckpt"
    for _ in range(ctx.scale.setups):
        with _setup(out):
            runner = CampaignRunner(_profiles(),
                                    _config(ctx, checkpoint_path=checkpoint))
            expected = sum(1 for _ in runner.schedule())
    digests: list[str] = []

    def one_pass() -> tuple[float, float]:
        runner = CampaignRunner(_profiles(),
                                _config(ctx, checkpoint_path=checkpoint))
        start = time.perf_counter()
        result = runner.run()
        elapsed = time.perf_counter() - start
        digests.append(_sha256(checkpoint))
        if len(digests) == 1:
            out.records_per_run = _records_per_run(checkpoint)
        out.check(result.reconciles() and not result.quarantined
                  and result.completed == expected
                  and digests[-1] == digests[0], expected,
                  f"campaign pass {len(digests)}: completed "
                  f"{result.completed}/{expected}, quarantined "
                  f"{len(result.quarantined)}, checkpoint {digests[-1]}")
        return elapsed, result.completed

    durations = _passes(ctx, out, one_pass, layers.SIMULATION)
    out.notes.append(f"campaign checkpoint sha256 {digests[0]} "
                     f"({expected} runs of {ctx.scale.duration_s} s, "
                     f"{len(durations)} passes)")
    return out


def _passes(ctx: Context, out: Outcome,
            one_pass: Callable[[], tuple[float, float]],
            targets) -> list[float]:
    """Untraced: measured passes.  Traced: untraced passes for half the
    time as the overhead baseline, then traced passes."""
    if not ctx.trace:
        return measure(ctx.seconds, one_pass, out)
    untraced = measure(ctx.seconds / 2, one_pass, out)
    baseline = statistics.median(untraced)
    with _traced(out, targets):
        durations = measure(ctx.seconds, one_pass, out)
    out.passes = len(durations)
    out.extras["tracing.overhead_ratio"] = \
        statistics.median(durations) / baseline
    return untraced + durations


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------


def resume(ctx: Context) -> Outcome:
    out = Outcome()
    checkpoint = ctx.work / "resume.ckpt"
    digests: list[str] = []
    for _ in range(ctx.scale.setups):
        with _setup(out):
            fresh = CampaignRunner(
                _profiles(), _config(ctx, checkpoint_path=checkpoint)).run()
        digests.append(_sha256(checkpoint))
    expected = fresh.scheduled
    out.records_per_run = _records_per_run(checkpoint)
    out.check(fresh.reconciles() and not fresh.quarantined
              and len(set(digests)) == 1, expected,
              f"resume set-up: checkpoints {sorted(set(digests))}")
    # The checkpoint stores each trace as NSG-style JSONL, which rounds
    # RSRP to 0.01 dB and throughput to 0.001 Mbps, so a restored
    # analysis matches the fresh campaign's on its loop verdict, and on
    # every field the analysis of the checkpointed bytes themselves.
    verdicts = {_run_key(run): (run.analysis.detection, run.analysis.subtype)
                for run in fresh.runs}
    reference = {}
    for entry in CampaignCheckpoint(checkpoint).load().values():
        trace = parse_trace(entry.trace_jsonl).trace
        reference[_run_key(trace)] = analyze_trace(trace)

    def one_pass() -> tuple[float, float]:
        runner = CampaignRunner(_profiles(), _config(
            ctx, checkpoint_path=checkpoint, resume=True))
        start = time.perf_counter()
        result = runner.run()
        elapsed = time.perf_counter() - start
        restored = {_run_key(run): run.analysis for run in result.runs}
        out.check(result.reconciles() and not result.quarantined
                  and restored.keys() == reference.keys() == verdicts.keys()
                  and all(same(restored[key], reference[key])
                          and same((restored[key].detection,
                                    restored[key].subtype), verdicts[key])
                          for key in reference), expected,
                  f"resume pass: {len(restored)}/{expected} restored, "
                  "analyses differ from the fresh campaign's")
        return elapsed, result.completed

    durations = _passes(ctx, out, one_pass, layers.SIMULATION)
    out.notes.append(f"resume checkpoint sha256 {digests[0]} "
                     f"({expected} runs, {len(durations)} passes)")
    return out


# ----------------------------------------------------------------------
# Launched repro processes (stream serve, broker serve, worker)
# ----------------------------------------------------------------------


class Child:
    """A ``repro`` command started through ``perfbench/launch.py``."""

    def __init__(self, ctx: Context, argv: list[str], label: str,
                 trace_out: Path | None = None):
        command = [sys.executable, str(ctx.root / "perfbench" / "launch.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.label = label
        self.trace_out = trace_out
        self.stderr_path = ctx.work / f"{label}.stderr"
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            command + argv, cwd=ctx.work, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._stderr)
        self._buffer = b""

    def expect_line(self, timeout_s: float = 60.0) -> str:
        deadline = time.monotonic() + timeout_s
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError(f"{self.label}: no output line within "
                                   f"{timeout_s:.0f} s; {self._tail()}")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"{self.label} exited early "
                                   f"({self.proc.wait()}); {self._tail()}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode().strip()

    def wait_ready(self) -> None:
        line = self.expect_line()
        if line != "perfbench-launcher ready":
            raise RuntimeError(f"{self.label}: unexpected line {line!r}")

    def send_line(self, text: str) -> None:
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()

    def cpu_s(self) -> float:
        """User + system CPU seconds so far (0 where /proc is absent)."""
        try:
            with open(f"/proc/{self.proc.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            return 0.0
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def wait(self, timeout_s: float = 60.0) -> int:
        try:
            return self.proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            self.close()
            raise RuntimeError(f"{self.label} did not exit within "
                               f"{timeout_s:.0f} s") from None

    def stop(self) -> int:
        """SIGTERM (the commands' graceful stop) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.wait()

    def spans(self) -> SpanTable:
        return SpanTable.load(self.trace_out)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self._stderr):
            stream.close()

    def _tail(self) -> str:
        self._stderr.flush()
        text = self.stderr_path.read_text(errors="replace").strip()
        return "stderr: " + (text[-2000:] or "(empty)")


class Children:
    """Every child of a run, so each is stopped even on failure."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.started: list[Child] = []

    def start(self, argv: list[str], label: str,
              traced: bool = False) -> Child:
        label = f"{label}-{len(self.started)}"
        trace_out = self.ctx.work / f"{label}.spans.npz" if traced else None
        child = Child(self.ctx, argv, label, trace_out)
        self.started.append(child)
        return child

    def close(self) -> None:
        for child in self.started:
            child.close()


# ----------------------------------------------------------------------
# stream_fleet
# ----------------------------------------------------------------------


@dataclass
class Fleet:
    """Pre-encoded replay of the seeded traces under several device ids:
    per connection, one chunk of open frames, then one chunk per
    round-robin round of record (or close) frames."""

    chunks: list[list[bytes]]
    streams: dict[str, int]  # stream id -> index into runs
    runs: list
    records: int


def encode_fleet(runs, replicas: int) -> Fleet:
    streams: dict[str, int] = {}
    buckets: list[list[str]] = [[] for _ in range(CONNECTIONS)]
    for replica in range(replicas):
        for index, run in enumerate(runs):
            meta = run.trace.metadata
            stream = f"dev{replica:02d}/{meta.operator}/{meta.location}"
            buckets[len(streams) % CONNECTIONS].append(stream)
            streams[stream] = index
    # Each record's JSON is encoded once and spliced into the frame of
    # every replica; the first frame is checked against encode_frame.
    records = [[json.dumps(record.to_dict(), separators=(",", ":")).encode()
                for record in run.trace.records] for run in runs]

    def record_frame(stream: str, body: bytes) -> bytes:
        payload = b'{"op":"record","stream":%s,"record":%s}' % (
            json.dumps(stream).encode(), body)
        return b"%d\n%s" % (len(payload), payload)

    first = next(iter(streams))
    if record_frame(first, records[0][0]) != encode_frame({
            "op": "record", "stream": first,
            "record": runs[0].trace.records[0].to_dict()}):
        raise RuntimeError("spliced record frame differs from encode_frame")
    chunks = []
    for bucket in buckets:
        opens = b"".join(encode_frame({
            "op": "open", "stream": stream,
            "meta": runs[streams[stream]].trace.metadata.to_dict()})
            for stream in bucket)
        rounds = [opens]
        step = 0
        live = bucket
        while live:
            frames, still = [], []
            for stream in live:
                trace_records = records[streams[stream]]
                if step < len(trace_records):
                    frames.append(record_frame(stream, trace_records[step]))
                    still.append(stream)
                else:
                    frames.append(encode_frame({"op": "close",
                                                "stream": stream}))
            rounds.append(b"".join(frames))
            live, step = still, step + 1
        chunks.append(rounds)
    total = sum(len(records[index]) for index in streams.values())
    return Fleet(chunks, streams, runs, total)


async def _drive(host: str, port: int, chunks: list[bytes],
                 streams: int) -> tuple[dict[str, dict], list[dict]]:
    reader, writer = await asyncio.open_connection(host, port)
    verdicts: dict[str, dict] = {}
    errors: list[dict] = []

    async def collect() -> None:
        while len(verdicts) + len(errors) < streams:
            frame = await read_frame(reader)
            if frame is None:
                raise RuntimeError("server closed before all verdicts")
            if frame.get("op") == "verdict":
                verdicts[frame["stream"]] = frame["verdict"]
            elif frame.get("op") == "error":
                errors.append(frame)

    replies = asyncio.create_task(collect())
    try:
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
        await replies
    finally:
        replies.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return verdicts, errors


async def _replay(host: str, port: int, fleet: Fleet):
    counts = [0] * CONNECTIONS
    for index, _ in enumerate(fleet.streams):
        counts[index % CONNECTIONS] += 1
    return await asyncio.wait_for(asyncio.gather(*(
        _drive(host, port, chunks, count)
        for chunks, count in zip(fleet.chunks, counts))), timeout=120)


def stream_fleet(ctx: Context) -> Outcome:
    out = Outcome()
    children = Children(ctx)
    # The server is the bottleneck: it gets a CPU of its own (the last
    # one), and the probes time that CPU.
    allowed = sorted(os.sched_getaffinity(0))
    server_cpus = allowed[-1:]

    def start_server(traced: bool = False) -> Child:
        server = children.start(["stream", "serve", "--port", "0"],
                                "stream-serve", traced)
        if len(allowed) > 1:
            os.sched_setaffinity(server.proc.pid, server_cpus)
        return server

    try:
        server = fleet = None
        for _ in range(ctx.scale.setups):
            if server is not None:
                server.stop()
            corpus = fleet = None
            with _setup(out):
                # Started first, so the server imports while the corpus
                # is simulated and encoded.
                server = start_server()
                corpus = CampaignRunner(_profiles(),
                                        _config(ctx, keep_traces=True)).run()
                fleet = encode_fleet(corpus.runs, ctx.scale.replicas)
                server.wait_ready()
                address = server.expect_line()
        batch = [analyze_trace(run.trace).detection for run in fleet.runs]
        out.records_per_run = fleet.records / len(fleet.streams)
        cpu: list[float] = []

        def one_pass() -> tuple[float, float]:
            host, _, port = address.rpartition(":")
            cpu_before = server.cpu_s()
            start = time.perf_counter()
            results = asyncio.run(_replay(host, int(port), fleet))
            elapsed = time.perf_counter() - start
            cpu.append(server.cpu_s() - cpu_before)
            verdicts = {k: v for got, _ in results for k, v in got.items()}
            errors = [error for _, got in results for error in got]
            matched, mismatched = 0, []
            for stream, index in fleet.streams.items():
                want, got = batch[index], verdicts.get(stream)
                records = len(fleet.runs[index].trace.records)
                if got is not None and (
                        got["kind"], got["start_index"], got["period"],
                        got["repetitions"], got["records"]) == (
                        want.kind.value, want.start_index, want.period,
                        want.repetitions, records):
                    matched += records
                else:
                    mismatched.append(stream)
            failures = max(len(mismatched), len(errors))
            out.attempted += len(fleet.streams)
            out.failed += failures
            if failures:
                out.notes.append(
                    f"FAILED: {len(mismatched)} verdicts differ from batch "
                    f"(first {mismatched[:3]}), {len(errors)} error frames "
                    f"(first {errors[:3]})")
            return elapsed, matched

        if not ctx.trace:
            measure(ctx.seconds, one_pass, out, cpus=server_cpus)
        else:
            baseline = statistics.median(
                measure(ctx.seconds / 2, one_pass, out, cpus=server_cpus))
            server.stop()
            server = start_server(traced=True)
            server.wait_ready()
            address = server.expect_line()
            cpu.clear()
            durations = measure(ctx.seconds, one_pass, out,
                                cpus=server_cpus)
            server.stop()
            out.tables.append(server.spans())
            out.passes = len(durations)
            out.extras.update({
                "tracing.overhead_ratio":
                    statistics.median(durations) / baseline,
                "serve.server.cpu_s": sum(cpu) / len(durations),
                "serve.server.busy_share": sum(cpu) / sum(durations)})
        code = server.stop()
        out.check(code == 128 + signal.SIGTERM, 1,
                  f"stream server exited {code}")
        out.notes.append(f"stream fleet: {len(fleet.streams)} streams, "
                         f"{fleet.records} records over {CONNECTIONS} "
                         f"connections per pass")
    finally:
        children.close()
    return out


# ----------------------------------------------------------------------
# broker_drain
# ----------------------------------------------------------------------


def _broker_counters(url: str) -> dict[str, float]:
    with urllib.request.urlopen(f"{url}/v1/metrics", timeout=10) as reply:
        text = reply.read().decode()
    totals = {"runs_stolen_total": 0.0, "leases_expired_total": 0.0}
    for line in text.splitlines():
        for name in totals:
            if line.startswith(f"broker_{name}"):
                totals[name] += float(line.rsplit(" ", 1)[1])
    return totals


def broker_drain(ctx: Context) -> Outcome:
    out = Outcome()
    scale = ctx.scale
    knobs = {"locations": scale.broker_locations,
             "duration_s": scale.broker_duration_s}
    reference_path = ctx.work / "reference.ckpt"
    reference = CampaignRunner(_profiles(), _config(
        ctx, checkpoint_path=reference_path, **knobs))
    start = time.perf_counter()
    reference_result = reference.run()
    reference_s = time.perf_counter() - start
    expected = reference_result.scheduled
    reference_bytes = reference_path.read_bytes()
    out.records_per_run = _records_per_run(reference_path)
    out.check(reference_result.reconciles()
              and not reference_result.quarantined, expected,
              "sequential reference campaign quarantined runs")
    children = Children(ctx)
    rounds = 0
    counters = {"runs_stolen_total": 0.0, "leases_expired_total": 0.0}

    started: list = []

    def start_round(traced: bool) -> None:
        nonlocal rounds
        rounds += 1
        base = ctx.work / f"broker-{rounds}"
        base.mkdir()
        with _setup(out):
            broker = children.start(
                ["broker", "serve", "--queue-dir", str(base / "queue"),
                 "--port", "0", "--drain-grace", "0"], "broker", traced)
            worker = children.start(["worker", "--broker", "{stdin}"],
                                    "worker", traced)
            broker.wait_ready()
            url = broker.expect_line()
            worker.wait_ready()
            worker.send_line(url)
        started[:] = [traced, base, broker, worker, url]

    def one_round() -> tuple[float, float]:
        traced, base, broker, worker, url = started
        runner = CampaignRunner(_profiles(), _config(
            ctx, scheduler="broker", broker_url=url,
            checkpoint_path=base / "campaign.ckpt",
            memo_dir=base / "memo", **knobs))
        identical = runner.campaign_identity() == \
            reference.campaign_identity()
        start = time.perf_counter()
        result = runner.run()
        elapsed = time.perf_counter() - start
        if traced:
            for name, value in _broker_counters(url).items():
                counters[name] += value
        worker_code = worker.wait()
        broker_code = broker.stop()
        if traced:
            out.tables.extend([broker.spans(), worker.spans()])
        same_bytes = (base / "campaign.ckpt").read_bytes() == reference_bytes
        out.check(identical and same_bytes and result.reconciles()
                  and not result.quarantined
                  and result.completed == expected
                  and worker_code == 0
                  and broker_code == 128 + signal.SIGTERM, expected,
                  f"broker round {rounds}: identity match {identical}, "
                  f"checkpoint equals sequential {same_bytes}, completed "
                  f"{result.completed}/{expected}, worker exit "
                  f"{worker_code}, broker exit {broker_code}")
        return elapsed, result.completed

    try:
        if not ctx.trace:
            durations = measure(ctx.seconds, one_round, out,
                                lambda: start_round(False))
        else:
            baseline = statistics.median(measure(
                ctx.seconds / 2, one_round, out, lambda: start_round(False)))
            with _traced(out, layers.SIMULATION + layers.CLIENT):
                durations = measure(ctx.seconds, one_round, out,
                                    lambda: start_round(True))
            out.passes = len(durations)
            out.extras.update(counters)
            out.extras["runs_stolen_total"] /= len(durations)
            out.extras["leases_expired_total"] /= len(durations)
            out.extras["tracing.overhead_ratio"] = \
                statistics.median(durations) / baseline
            out.extras["campaign.broker_overhead_ratio"] = \
                baseline / reference_s
    finally:
        children.close()
    out.notes.append(
        f"broker_drain: {rounds} rounds of {expected} runs of "
        f"{scale.broker_duration_s} s; checkpoint sha256 "
        f"{hashlib.sha256(reference_bytes).hexdigest()} equals the "
        f"sequential reference ({reference_s:.2f} s)")
    return out


WORKLOADS = {
    "campaign": campaign,
    "resume": resume,
    "stream_fleet": stream_fleet,
    "broker_drain": broker_drain,
}
