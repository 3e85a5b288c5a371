"""Command-line interface.

The subcommands mirror the reproduction's main workflows::

    python -m repro campaign --operator OP_T --areas A1 --locations 6 --runs 3
        Run a scaled measurement campaign and print the summary report.
        Supports per-run retries (--max-retries), checkpointing
        (--checkpoint) and resuming an interrupted campaign (--resume).
        Supervision: ``--run-timeout`` gives every run a wall-clock
        budget (hung pool workers are killed and their keys retried or
        quarantined), ``--breaker-rebuilds`` / ``--breaker-failures``
        bound recovery before the campaign fails fast, and
        ``--no-fsync`` trades checkpoint durability for throughput.
        Observability: ``--metrics-out metrics.json`` (or ``.prom`` for
        Prometheus text), ``--trace-out spans.jsonl`` and ``--progress``
        (live stderr status line); on Ctrl-C *or SIGTERM* a final
        metrics/progress snapshot is flushed before the resume hint, so
        interrupted campaigns stay accountable.

    python -m repro analyze trace.jsonl [--errors recover]
        Analyse a saved signaling trace (loop detection, classification,
        performance) — the released-dataset workflow.  Corrupt input
        exits with code 1 and a one-line diagnostic in strict mode, or
        degrades gracefully with ``--errors recover``.

    python -m repro simulate --operator OP_V --area A9 --out trace.jsonl
        Simulate one stationary run and save its signaling trace.

    python -m repro profile --seed 42
        Run a seeded, instrumented mini-campaign and print the
        per-stage timing table plus the metrics reconciliation check
        (exit code 1 when the telemetry does not reconcile).

    python -m repro broker serve --queue-dir QDIR [--port N]
        Own a campaign queue directory and serve the task-queue verbs
        (submit/seal/claim/heartbeat/complete/status) over HTTP with a
        broker-authoritative lease clock, plus a content-addressed
        artifact plane for task/outcome payloads.  Point the
        coordinator (``repro campaign --broker URL``) and any number of
        workers, on this host or others (``repro worker --broker
        URL``), at it.  The bound URL is printed on stdout (``--port
        0`` picks a free port); SIGTERM drains gracefully — mutating
        verbs get 503 while in-flight state is already fsynced — and a
        restarted broker on the same queue directory resumes the
        campaign.

    python -m repro worker --broker URL [--telemetry-dir QDIR/telemetry]
        Attach to a campaign broker and drain its task queue: claim
        runs under heartbeated leases, execute them, record fenced
        completions.  Start N of these; kill any of them at any time —
        expired leases are stolen by the survivors without
        double-completion.  ``--telemetry-dir`` flushes the worker's
        events/spans/metrics to a durable telemetry spool (under the
        broker's ``QDIR/telemetry/`` for ``repro status``).  Exit 75
        (EX_TEMPFAIL) means the broker stayed unreachable and the
        worker should simply be restarted.

    python -m repro status QDIR [--json|--watch [SECONDS]|--serve PORT]
        Live view of a broker campaign's telemetry plane: worker
        liveness, lease table, queue depth/throughput/ETA, merged
        worker counters and recent events — aggregated read-only from
        the broker's queue directory (spool, heartbeat files and
        telemetry spools), so it can run beside (or after) a live
        campaign.  ``--serve PORT``
        exposes ``/metrics`` (Prometheus text) and ``/status`` (JSON)
        over stdlib HTTP for mid-campaign scraping.

    python -m repro stream serve [--metrics-port 0] [--events-out ev.jsonl]
        Run the live ingest server: thousands of concurrent device
        streams over length-framed JSONL, each through a bounded-memory
        incremental analyzer; loop onsets/ends surface as ``stream.*``
        events and Prometheus ``/metrics``.  The bound HOST:PORT is the
        first stdout line (then the metrics URL, with --metrics-port).

    python -m repro stream replay HOST:PORT trace1.jsonl trace2.jsonl ...
        Replay saved traces against a running ingest server, multiplexed
        over a few connections, and print each stream's verdict as JSON.

``--log-level``/``--log-json`` on campaign, worker and profile mirror
the structured event stream (claims, steals, retries, quarantines,
breaker trips, …) to stderr, replacing the ad-hoc logging warnings.

Interrupts: Ctrl-C and SIGTERM share one graceful-drain path (the
checkpoint is flushed, a resume hint printed) and exit ``128 +
signum`` — 130 for SIGINT, 143 for SIGTERM.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.analysis.report import campaign_report, run_report
from repro.campaign import (
    CampaignConfig,
    CampaignRunner,
    OPERATORS,
    build_deployment,
    device,
    operator,
)
from repro.campaign.locations import sparse_locations
from repro.campaign.runner import run_once
from repro.core.pipeline import analyze_trace
from repro.obs import (
    Instrumentation,
    NULL_INSTRUMENTATION,
    SEVERITIES,
    StderrEventSink,
    StderrProgressReporter,
    attach_logging_bridge,
    make_instrumentation,
)
from repro.obs.profile import run_profile
from repro.resilience.checkpoint import CheckpointMismatchError
from repro.resilience.memo import AnalysisMemo, trace_digest
from repro.resilience.supervision import (
    CircuitBreakerOpen,
    ShutdownRequested,
    graceful_shutdown,
)
from repro.traces.parser import TraceParseError, parse_trace


def _add_campaign_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "campaign", help="run a measurement campaign and print the report")
    parser.add_argument("--operator", action="append", dest="operators",
                        choices=sorted(OPERATORS),
                        help="operator(s) to include (default: all)")
    parser.add_argument("--areas", nargs="*", default=None,
                        help="restrict to these areas (default: all)")
    parser.add_argument("--locations", type=int, default=6,
                        help="locations per area (default 6)")
    parser.add_argument("--runs", type=int, default=4,
                        help="runs per location (default 4)")
    parser.add_argument("--duration", type=int, default=300,
                        help="run duration in seconds (default 300)")
    parser.add_argument("--device", default="OnePlus 12R",
                        help="phone model (default: OnePlus 12R)")
    parser.add_argument("--max-retries", type=int, default=0,
                        help="retries per failed run before quarantining it "
                             "(default 0)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="append-only JSONL checkpoint of finished runs")
    parser.add_argument("--resume", action="store_true",
                        help="resume completed runs from --checkpoint "
                             "instead of re-simulating them")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (locations, retry jitter; "
                             "default 0)")
    parser.add_argument("--no-fsync", action="store_true",
                        help="skip the per-append fsync on the checkpoint "
                             "(faster, but an acknowledged run may not "
                             "survive power loss)")
    parser.add_argument("--breaker-rebuilds", type=int, default=3,
                        metavar="N",
                        help="worker-pool rebuilds tolerated before the "
                             "campaign fails fast (default 3)")
    parser.add_argument("--breaker-failures", type=int, default=0,
                        metavar="N",
                        help="consecutive run failures before the campaign "
                             "fails fast (default 0 = disabled)")
    parser.add_argument("--broker", default=None, metavar="URL",
                        help="drain the campaign through the `repro "
                             "broker serve` at this URL (e.g. "
                             "http://127.0.0.1:8737) and its `repro "
                             "worker` processes instead of --workers")
    parser.add_argument("--lease-timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="work-claim lease duration; a worker silent "
                             "for this long has its run stolen "
                             "(default 30)")
    parser.add_argument("--queue-stall", type=float, default=60.0,
                        metavar="SECONDS",
                        help="fail fast when the queue sees no activity "
                             "and no live workers for this long "
                             "(0 disables; default 60)")
    parser.add_argument("--memo-dir", default=None, metavar="DIR",
                        help="content-addressed analysis cache; repeated "
                             "campaigns and --resume skip re-analysis of "
                             "unchanged traces")
    _add_workers_flag(parser)
    _add_run_timeout_flag(parser)
    _add_observability_flags(parser)


def _add_worker_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "worker", help="drain a campaign broker's task queue (start N "
                       "of these against a `repro broker serve` URL)")
    parser.add_argument("--broker", required=True, metavar="URL",
                        help="campaign broker URL to drain over HTTP")
    parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="durable telemetry spool directory; "
                             "<queue-dir>/telemetry of the broker is "
                             "where `repro status` reads it (default: "
                             "none)")
    parser.add_argument("--worker-id", default=None,
                        help="stable worker identity "
                             "(default: <hostname>-<pid>)")
    parser.add_argument("--lease", type=float, default=None,
                        metavar="SECONDS",
                        help="lease duration per claim; heartbeats renew "
                             "it every lease/3 (default: the campaign's "
                             "--lease-timeout, as the broker advertises)")
    parser.add_argument("--poll", type=float, default=0.05,
                        metavar="SECONDS",
                        help="idle poll interval (default 0.05)")
    parser.add_argument("--attach-timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="how long to wait for the coordinator to "
                             "create the queue before exiting 1 "
                             "(default 60)")
    _add_log_flags(parser)


def _add_broker_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "broker", help="campaign broker: serve a task queue over HTTP")
    actions = parser.add_subparsers(dest="broker_command", required=True)
    serve = actions.add_parser(
        "serve", help="own a queue directory and serve the queue verbs "
                      "+ artifact plane over HTTP")
    serve.add_argument("--queue-dir", required=True, metavar="DIR",
                       help="queue directory this broker owns (spool + "
                            "artifacts); restarting against the same "
                            "directory resumes the campaign")
    serve.add_argument("--port", type=int, default=0, metavar="PORT",
                       help="TCP port to bind (default 0 = pick a free "
                            "one; the bound URL is printed on stdout)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-request socket timeout; a stalled "
                            "client can never wedge the broker "
                            "(default 30)")
    serve.add_argument("--drain-grace", type=float, default=1.0,
                       metavar="SECONDS",
                       help="on SIGTERM/SIGINT, keep answering 503 to "
                            "mutating verbs for this long before "
                            "stopping (default 1)")
    serve.add_argument("--no-fsync", action="store_true",
                       help="skip the per-append fsync on the spool "
                            "(faster, weaker durability)")
    _add_log_flags(serve)


def _add_status_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "status", help="live view of a broker campaign's telemetry plane")
    parser.add_argument("queue_dir", metavar="QUEUE_DIR",
                        help="the campaign broker's --queue-dir")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the full machine-readable view "
                             "instead of the terminal rendering")
    parser.add_argument("--watch", nargs="?", const=2.0, type=float,
                        default=None, metavar="SECONDS",
                        help="refresh continuously every SECONDS "
                             "(default 2) until interrupted")
    parser.add_argument("--serve", type=int, default=None, metavar="PORT",
                        help="serve /metrics (Prometheus text) and "
                             "/status (JSON) over HTTP instead of "
                             "printing (0 picks a free port)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address for --serve "
                             "(default 127.0.0.1)")
    parser.add_argument("--events", type=int, default=20, metavar="N",
                        help="recent events to include (default 20)")
    parser.add_argument("--min-severity", choices=tuple(SEVERITIES),
                        default="debug",
                        help="lowest event severity to include "
                             "(default debug)")


def _add_workers_flag(parser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="run the campaign over N worker processes "
                             "(results are bit-identical to --workers 1 "
                             "for the same seed; default 1)")


def _add_run_timeout_flag(parser) -> None:
    parser.add_argument("--run-timeout", type=float, default=None,
                        metavar="SECONDS", dest="run_timeout",
                        help="wall-clock budget per run; a run that blows "
                             "it is retried/quarantined as a timeout, and "
                             "hung pool workers are killed and respawned")


def _add_observability_flags(parser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the metrics snapshot here (JSON, or "
                             "Prometheus text for .prom/.txt paths)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the span tree here (JSONL, one span "
                             "per line)")
    parser.add_argument("--progress", action="store_true",
                        help="live progress (rate/ETA/tallies) on stderr")
    _add_log_flags(parser)


def _add_log_flags(parser) -> None:
    parser.add_argument("--log-level", choices=tuple(SEVERITIES),
                        default=None, metavar="LEVEL",
                        help="mirror structured events at LEVEL or above "
                             "(debug/info/warning/error) to stderr; also "
                             "captures stdlib logging warnings into the "
                             "event stream")
    parser.add_argument("--log-json", action="store_true",
                        help="render the mirrored events as JSON lines "
                             "instead of human-readable ones "
                             "(implies --log-level info)")


def _add_analyze_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "analyze", help="analyse a saved signaling trace (JSONL)")
    parser.add_argument("trace", help="path to a trace .jsonl file")
    parser.add_argument("--errors", choices=("strict", "recover"),
                        default="strict",
                        help="strict: fail on the first malformed line; "
                             "recover: skip malformed lines and report them")
    parser.add_argument("--memo-dir", default=None, metavar="DIR",
                        help="content-addressed analysis cache; re-analysing "
                             "an unchanged trace becomes a cache hit")


def _add_simulate_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "simulate", help="simulate one run and save the signaling trace")
    parser.add_argument("--operator", default="OP_T", choices=sorted(OPERATORS))
    parser.add_argument("--area", default=None,
                        help="area name (default: the operator's first area)")
    parser.add_argument("--device", default="OnePlus 12R")
    parser.add_argument("--duration", type=int, default=300)
    parser.add_argument("--location-seed", type=int, default=7,
                        help="seed choosing the test location")
    parser.add_argument("--location-index", type=int, default=0,
                        help="which sampled location to use")
    parser.add_argument("--run-index", type=int, default=0)
    parser.add_argument("--out", required=True, help="output .jsonl path")


def _add_profile_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "profile", help="run a seeded instrumented mini-campaign and "
                        "print the per-stage timing table")
    parser.add_argument("--seed", type=int, default=42,
                        help="campaign seed (default 42)")
    parser.add_argument("--operator", action="append", dest="operators",
                        choices=sorted(OPERATORS),
                        help="operator(s) to include (default: all)")
    parser.add_argument("--areas", nargs="*", default=None,
                        help="restrict to these areas (default: all)")
    parser.add_argument("--locations", type=int, default=2,
                        help="locations per area (default 2)")
    parser.add_argument("--runs", type=int, default=2,
                        help="runs per location (default 2)")
    parser.add_argument("--duration", type=int, default=60,
                        help="run duration in seconds (default 60)")
    parser.add_argument("--max-retries", type=int, default=0,
                        help="retries per failed run (default 0)")
    parser.add_argument("--memo-dir", default=None, metavar="DIR",
                        help="content-addressed analysis cache; a warm "
                             "cache makes re-profiling pure cache hits "
                             "(see the 'analysis memo' summary line)")
    _add_workers_flag(parser)
    _add_run_timeout_flag(parser)
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="also write the metrics snapshot here (JSON, "
                             "or Prometheus text for .prom/.txt paths)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="also write the span tree here (JSONL)")
    _add_log_flags(parser)


def _add_stream_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "stream", help="live stream ingest: serve or replay device "
                       "streams for online loop detection")
    actions = parser.add_subparsers(dest="stream_command", required=True)
    serve = actions.add_parser(
        "serve", help="run the asyncio ingest server (length-framed "
                      "JSONL, live loop detection per stream)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0, metavar="PORT",
                       help="TCP port to bind (default 0 = pick a free "
                            "one; the bound address is printed on stdout)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="also serve Prometheus /metrics on this port "
                            "(0 picks a free one; the metrics URL is the "
                            "second stdout line)")
    serve.add_argument("--horizon", type=int, default=None, metavar="N",
                       help="per-stream dedup-ring horizon bounding "
                            "memory and the longest detectable period "
                            "(default 4096; 0 = unbounded)")
    serve.add_argument("--min-repetitions", type=int, default=2,
                       metavar="K",
                       help="repetitions required to call a loop "
                            "(default 2)")
    serve.add_argument("--max-streams", type=int, default=10_000,
                       metavar="N",
                       help="cap on concurrently open streams "
                            "(default 10000)")
    serve.add_argument("--on-disorder", choices=("strict", "recover"),
                       default="recover",
                       help="out-of-order records: recover clamps and "
                            "counts them (default), strict drops the "
                            "stream with an error frame")
    serve.add_argument("--events-out", default=None, metavar="PATH",
                       help="append stream.* events (loop onsets/ends) "
                            "as JSONL here")
    _add_log_flags(serve)
    replay = actions.add_parser(
        "replay", help="replay saved traces against a running ingest "
                       "server and print the verdicts as JSON")
    replay.add_argument("address", metavar="HOST:PORT",
                        help="ingest server address (the line `stream "
                             "serve` printed on stdout)")
    replay.add_argument("traces", nargs="+", metavar="TRACE",
                        help="trace .jsonl files; each becomes one "
                             "stream named after the file stem")
    replay.add_argument("--connections", type=int, default=4, metavar="N",
                        help="TCP connections to multiplex the streams "
                             "over (default 4)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'An In-Depth Look into 5G ON-OFF "
                    "Loops in the Wild' (IMC 2025)")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_campaign_parser(subparsers)
    _add_analyze_parser(subparsers)
    _add_simulate_parser(subparsers)
    _add_profile_parser(subparsers)
    _add_worker_parser(subparsers)
    _add_broker_parser(subparsers)
    _add_status_parser(subparsers)
    _add_stream_parser(subparsers)
    return parser


# ----------------------------------------------------------------------
# Observability plumbing shared by campaign/profile
# ----------------------------------------------------------------------


def _build_instrumentation(args: argparse.Namespace) -> Instrumentation:
    """A live bundle when any observability flag is set, else the no-op."""
    wants_progress = getattr(args, "progress", False)
    if not (args.metrics_out or args.trace_out or wants_progress
            or _wants_event_stream(args)):
        return NULL_INSTRUMENTATION
    progress = StderrProgressReporter() if wants_progress else None
    obs = make_instrumentation(progress=progress)
    _attach_event_stream(obs, args)
    return obs


def _wants_event_stream(args: argparse.Namespace) -> bool:
    return getattr(args, "log_level", None) is not None \
        or getattr(args, "log_json", False)


def _attach_event_stream(obs: Instrumentation,
                         args: argparse.Namespace) -> None:
    """Mirror structured events to stderr per ``--log-level/--log-json``.

    Also routes stdlib ``logging`` warnings from the ``repro`` loggers
    into the event stream, so the old ad-hoc warnings show up exactly
    once, in the structured format, instead of as loose stderr lines.
    """
    if not (obs.events.enabled and _wants_event_stream(args)):
        return
    level = getattr(args, "log_level", None) or "info"
    obs.events.add_sink(StderrEventSink(
        min_severity=level, json_mode=getattr(args, "log_json", False)))
    attach_logging_bridge(obs.events)


def _flush_observability(obs: Instrumentation,
                         args: argparse.Namespace) -> None:
    """Write the requested metrics/span exports (also on interrupt)."""
    if not obs.enabled:
        return
    if args.metrics_out:
        if args.metrics_out.endswith((".prom", ".txt")):
            obs.registry.export_prometheus(args.metrics_out)
        else:
            obs.registry.export_json(args.metrics_out)
        print(f"wrote metrics snapshot to {args.metrics_out}",
              file=sys.stderr)
    if args.trace_out:
        obs.tracer.export_jsonl(args.trace_out)
        print(f"wrote {len(obs.tracer.finished)} spans to {args.trace_out}",
              file=sys.stderr)


def _final_progress_snapshot(obs: Instrumentation) -> None:
    snapshot = obs.progress.snapshot()
    if snapshot:
        print("progress snapshot: "
              + " ".join(f"{key}={value:g}" if isinstance(value, float)
                         else f"{key}={value}"
                         for key, value in snapshot.items()),
              file=sys.stderr)


def _cmd_campaign(args: argparse.Namespace) -> int:
    names = args.operators or sorted(OPERATORS)
    profiles = [operator(name) for name in names]
    config = CampaignConfig(
        device_name=args.device,
        duration_s=args.duration,
        locations_per_area=args.locations,
        a1_locations=args.locations,
        runs_per_location=args.runs,
        a1_runs_per_location=args.runs,
        area_names=args.areas,
        seed=args.seed,
        max_retries=args.max_retries,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        workers=args.workers,
        run_timeout_s=args.run_timeout,
        checkpoint_fsync=not args.no_fsync,
        breaker_max_rebuilds=args.breaker_rebuilds,
        breaker_max_consecutive_failures=args.breaker_failures,
        scheduler="broker" if args.broker else "pool",
        lease_timeout_s=args.lease_timeout,
        queue_stall_s=args.queue_stall,
        memo_dir=args.memo_dir,
        broker_url=args.broker,
    )
    obs = _build_instrumentation(args)
    try:
        with graceful_shutdown():
            result = CampaignRunner(profiles, config, obs=obs).run()
    except (KeyboardInterrupt, ShutdownRequested) as stop:
        # Flush what the interrupted campaign did accomplish *before*
        # the resume hint, so partial runs are accountable.  Ctrl-C
        # (SIGINT) and SIGTERM share this drain-flush-resume path and
        # exit 128 + signum (130 / 143).
        _flush_observability(obs, args)
        _final_progress_snapshot(obs)
        _print_resume_hint(args, "interrupted")
        return 128 + stop.signum if isinstance(stop, ShutdownRequested) \
            else 130
    except CircuitBreakerOpen as error:
        # The failure pattern looked systemic; surface the breaker's
        # diagnostic summary and where to resume once it is fixed.
        _flush_observability(obs, args)
        _final_progress_snapshot(obs)
        print(f"error: {error}", file=sys.stderr)
        _print_resume_hint(args, "stopped early")
        return 1
    except CheckpointMismatchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    _flush_observability(obs, args)
    print(campaign_report(result))
    return 0


def _print_resume_hint(args: argparse.Namespace, what: str) -> None:
    if args.checkpoint:
        print(f"{what}; resume with --checkpoint {args.checkpoint} "
              f"--resume", file=sys.stderr)
    else:
        print(f"{what} (no checkpoint; rerun with --checkpoint to "
              "make campaigns resumable)", file=sys.stderr)


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        text = Path(args.trace).read_text(encoding="utf-8")
    except OSError as error:
        print(f"error: cannot read trace {args.trace}: "
              f"{error.strerror or error}", file=sys.stderr)
        return 1
    try:
        parsed = parse_trace(text, errors=args.errors)
    except TraceParseError as error:
        print(f"error: corrupt trace {args.trace}: {error} "
              f"(use --errors recover to skip malformed lines)",
              file=sys.stderr)
        return 1
    if args.errors == "recover" and not parsed.report.ok:
        print(f"recovered: {parsed.report.summary()}")
    if args.memo_dir:
        memo = AnalysisMemo(args.memo_dir)
        digest = trace_digest(parsed.trace.to_jsonl())
        analysis = memo.get(digest)
        if analysis is None:
            analysis = analyze_trace(parsed.trace)
            memo.put(digest, analysis)
    else:
        analysis = analyze_trace(parsed.trace)
    print(run_report(analysis))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    profile = operator(args.operator)
    area_name = args.area or profile.areas[0].name
    deployment = build_deployment(profile, area_name)
    spec = profile.area_spec(area_name)
    points = sparse_locations(spec.area, args.location_index + 1,
                              seed=args.location_seed)
    point = points[args.location_index]
    result = run_once(deployment, profile, device(args.device), point,
                      f"{area_name}-CLI", args.run_index,
                      duration_s=args.duration, keep_trace=True)
    result.trace.save(args.out)
    print(f"saved {len(result.trace)} records to {args.out}")
    print(run_report(result.analysis))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    obs = make_instrumentation()
    _attach_event_stream(obs, args)
    report = run_profile(
        seed=args.seed,
        operator_names=args.operators,
        area_names=args.areas,
        locations=args.locations,
        runs=args.runs,
        duration_s=args.duration,
        max_retries=args.max_retries,
        workers=args.workers,
        run_timeout_s=args.run_timeout,
        obs=obs,
        memo_dir=args.memo_dir,
    )
    _flush_observability(report.obs, args)
    print(report.summary())
    if not report.reconciles():
        print("error: metrics reconciliation failed "
              "(scheduled != completed + quarantined)", file=sys.stderr)
        return 1
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.campaign.worker import QueueWorker, WorkerConfig

    kwargs = {"broker_url": args.broker, "lease_s": args.lease,
              "poll_s": args.poll, "attach_timeout_s": args.attach_timeout,
              "telemetry_dir": args.telemetry_dir}
    if args.worker_id:
        kwargs["worker_id"] = args.worker_id
    obs = make_instrumentation()
    _attach_event_stream(obs, args)
    worker = QueueWorker(WorkerConfig(**kwargs), obs=obs)
    try:
        with graceful_shutdown():
            return worker.run()
    except (KeyboardInterrupt, ShutdownRequested) as stop:
        # Nothing to flush: an outstanding lease simply expires and is
        # stolen; completed work is already durable on the broker.
        print(f"worker {worker.config.worker_id} stopping "
              f"({worker.completed} completed)", file=sys.stderr)
        return 128 + stop.signum if isinstance(stop, ShutdownRequested) \
            else 130


def _cmd_broker(args: argparse.Namespace) -> int:
    import threading

    from repro.campaign.broker import CampaignBroker, serve_broker

    obs = make_instrumentation()
    _attach_event_stream(obs, args)
    broker = CampaignBroker(args.queue_dir, fsync=not args.no_fsync,
                            obs=obs)
    server = serve_broker(broker, args.port, host=args.host,
                          request_timeout_s=args.request_timeout)
    host, port = server.server_address[:2]
    # The URL goes to stdout so scripts can capture it; the
    # human-facing chatter stays on stderr.
    print(f"http://{host}:{port}", flush=True)
    print(f"broker serving http://{host}:{port} "
          f"(queue {args.queue_dir}; Ctrl-C / SIGTERM drains and stops)",
          file=sys.stderr)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with graceful_shutdown():
            while thread.is_alive():
                time.sleep(0.2)
        return 0
    except (KeyboardInterrupt, ShutdownRequested) as stop:
        # Graceful drain: mutating verbs get a retryable 503 for the
        # grace window (clients back off across the restart), then the
        # server stops.  The spool is fsynced per append, so there is
        # nothing else to flush — the queue directory IS the state.
        broker.begin_drain()
        time.sleep(max(0.0, args.drain_grace))
        print(f"broker drained and stopped; campaign state is durable "
              f"at {args.queue_dir} — restart `repro broker serve "
              f"--queue-dir {args.queue_dir}` to resume", file=sys.stderr)
        return 128 + stop.signum if isinstance(stop, ShutdownRequested) \
            else 130
    finally:
        server.shutdown()
        server.server_close()


def _render_status_once(aggregator, args: argparse.Namespace) -> str:
    from repro.obs.aggregate import render_status

    view = aggregator.view(recent_events=args.events,
                           min_severity=args.min_severity)
    if args.as_json:
        return view.to_json()
    return render_status(view)


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.obs.aggregate import CampaignAggregator, serve_status

    aggregator = CampaignAggregator(args.queue_dir)
    if args.serve is not None:
        server = serve_status(aggregator, args.serve, host=args.host)
        host, port = server.server_address[:2]
        print(f"serving http://{host}:{port}/status and "
              f"http://{host}:{port}/metrics (Ctrl-C stops)",
              file=sys.stderr)
        try:
            with graceful_shutdown():
                server.serve_forever()
        except (KeyboardInterrupt, ShutdownRequested):
            pass
        finally:
            server.server_close()
        return 0
    if args.watch is not None:
        interval = max(0.1, args.watch)
        try:
            with graceful_shutdown():
                while True:
                    if aggregator.refresh():
                        if not args.as_json and sys.stdout.isatty():
                            # Clear + home, like watch(1), only when a
                            # human is looking at it.
                            print("\x1b[2J\x1b[H", end="")
                        print(_render_status_once(aggregator, args),
                              flush=True)
                    else:
                        print(f"waiting for a task-queue spool at "
                              f"{args.queue_dir} …", file=sys.stderr)
                    time.sleep(interval)
        except (KeyboardInterrupt, ShutdownRequested):
            return 0
    if not aggregator.refresh():
        print(f"error: no task-queue spool at {args.queue_dir} "
              f"(is this the broker's --queue-dir?)", file=sys.stderr)
        return 1
    print(_render_status_once(aggregator, args))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    if args.stream_command == "serve":
        return _cmd_stream_serve(args)
    return _cmd_stream_replay(args)


def _cmd_stream_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import threading

    from repro.serve import StreamIngestServer, serve_metrics

    obs = make_instrumentation()
    _attach_event_stream(obs, args)
    events_file = None
    if args.events_out:
        events_file = open(args.events_out, "a", encoding="utf-8")

        def _jsonl_sink(event) -> None:
            events_file.write(json.dumps(event.to_dict(),
                                         separators=(",", ":")) + "\n")
            events_file.flush()

        obs.events.add_sink(_jsonl_sink)
    horizon = args.horizon
    if horizon is None:
        from repro.serve.server import DEFAULT_HORIZON
        horizon = DEFAULT_HORIZON
    server = StreamIngestServer(
        host=args.host, port=args.port,
        horizon=horizon or None,  # 0 -> unbounded
        min_repetitions=args.min_repetitions,
        max_streams=args.max_streams,
        on_disorder=args.on_disorder,
        obs=obs,
    )
    metrics_server = None

    async def _run() -> None:
        nonlocal metrics_server
        await server.start()
        host, port = server.address
        # Machine-readable lines first (CI smoke captures them); the
        # human-facing chatter stays on stderr, like `broker serve`.
        print(f"{host}:{port}", flush=True)
        if args.metrics_port is not None:
            metrics_server = serve_metrics(obs.registry, args.metrics_port,
                                           host=args.host)
            mhost, mport = metrics_server.server_address[:2]
            print(f"http://{mhost}:{mport}/metrics", flush=True)
            threading.Thread(target=metrics_server.serve_forever,
                             daemon=True).start()
        print(f"stream ingest serving {host}:{port} "
              f"(horizon {horizon or 'unbounded'}; Ctrl-C / SIGTERM "
              f"stops)", file=sys.stderr)
        await server.serve_forever()

    try:
        with graceful_shutdown():
            asyncio.run(_run())
        return 0
    except (KeyboardInterrupt, ShutdownRequested) as stop:
        # Verdictless streams just end: live state is per-connection
        # and the protocol has no server-side durability to flush.
        print("stream ingest stopped", file=sys.stderr)
        return 128 + stop.signum if isinstance(stop, ShutdownRequested) \
            else 130
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
            metrics_server.server_close()
        if events_file is not None:
            events_file.close()


def _cmd_stream_replay(args: argparse.Namespace) -> int:
    import json

    from repro.serve import load_trace_files, replay_traces

    host, _, port = args.address.rpartition(":")
    if not host or not port.isdigit():
        print(f"error: bad address {args.address!r} (want HOST:PORT)",
              file=sys.stderr)
        return 2
    try:
        traces = load_trace_files(args.traces)
    except (OSError, TraceParseError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    results = replay_traces(host, int(port), traces,
                            connections=args.connections)
    payload = {stream_id: {"verdict": result.verdict,
                           "error": result.error}
               for stream_id, result in sorted(results.items())}
    print(json.dumps(payload, indent=2))
    return 0 if all(result.error is None
                    for result in results.values()) else 1


_COMMANDS = {
    "campaign": _cmd_campaign,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "profile": _cmd_profile,
    "worker": _cmd_worker,
    "broker": _cmd_broker,
    "status": _cmd_status,
    "stream": _cmd_stream,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # `repro status ... | head` closes stdout early; exit with the
        # conventional SIGPIPE status instead of a traceback.  stdout
        # is re-pointed at devnull so the interpreter's shutdown flush
        # cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
