"""Which ``src/repro`` functions the traced run wraps, and the per-layer
metrics it derives from their spans.

The layers are the ``src/repro`` packages: ``radio``, ``rrc``,
``throughput``, ``traces``, ``core``, ``resilience``, ``campaign`` and
``serve``.  A span's name starts with its layer.  Every function is
wrapped at the name its caller looks it up by: ``repro.campaign.runner``
binds ``simulate_run``, ``analyze_trace``, ``run_once`` and
``build_deployment`` at import, ``repro.core.pipeline`` binds the
analysis stages, ``repro.serve.server`` binds ``parse_record`` and
``read_frame``; methods are wrapped on their class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from perfbench.spans import SpanTable, Target, self_times


def _key_from_run_config(log, args, kwargs) -> None:
    config = args[4] if len(args) > 4 else kwargs["config"]
    meta = config.metadata
    log.set_key(f"{meta.operator}/{meta.location}/{meta.run_seed}")


def _after_parse_trace(log, args, kwargs, result) -> None:
    meta = result.trace.metadata
    log.set_key(f"{meta.operator}/{meta.location}/{meta.run_seed}")
    log.count("traces.records_parsed", len(result.trace.records))


def _after_read_frame(log, args, kwargs, result) -> None:
    if isinstance(result, dict) and isinstance(result.get("stream"), str):
        log.set_key(result["stream"])


def _key_from_path(log, args, kwargs) -> None:
    log.set_key(args[2].split("?", 1)[0])


def _client_span(args: tuple) -> str:
    return f"campaign.BrokerClient.{args[0].role}"


#: The simulator, analysis, checkpoint and memo layers, plus the
#: in-process campaign loop: everything a campaign run executes.
SIMULATION = [
    Target("repro.campaign.runner", "simulate_run", "rrc.simulate_run",
           before=_key_from_run_config),
    Target("repro.rrc.session", "RadioSampler.observe",
           "rrc.RadioSampler.observe"),
    Target("repro.rrc.session", "RadioSampler.observe_identity",
           "rrc.RadioSampler.observe_identity"),
    Target("repro.radio.propagation", "PropagationModel.fading_db",
           "radio.PropagationModel.fading_db"),
    Target("repro.radio.propagation", "PropagationModel.mean_rsrp_dbm",
           "radio.PropagationModel.mean_rsrp_dbm"),
    *[Target("repro.rrc.network", f"SaNetworkLogic.{method}", "rrc.network")
      for method in ("blind_scell_set", "scell_modification")],
    *[Target("repro.rrc.network", f"NsaNetworkLogic.{method}", "rrc.network")
      for method in ("redirect_target", "handover_decision", "scg_addition",
                     "scg_change")],
    *[Target("repro.throughput.model", f"DataRateModel.{method}",
             "throughput.DataRateModel")
      for method in ("carrier_rate_mbps", "rate_mbps", "lte_only_rate_mbps",
                     "split_primary")],
    Target("repro.traces.log", "SignalingTrace.append",
           "traces.SignalingTrace.append"),
    Target("repro.traces.log", "SignalingTrace.to_jsonl",
           "traces.SignalingTrace.to_jsonl"),
    Target("repro.traces.parser", "parse_trace", "traces.parse_trace",
           after=_after_parse_trace),
    Target("repro.campaign.runner", "analyze_trace", "core.analyze_trace"),
    Target("repro.core.columnar", "RecordColumns.from_trace",
           "core.RecordColumns.from_trace"),
    Target("repro.core.pipeline", "extract_cellset_sequence",
           "core.extract_cellset_sequence"),
    Target("repro.core.columnar", "IntervalColumns.from_intervals",
           "core.IntervalColumns.from_intervals"),
    Target("repro.core.pipeline", "detect_loop", "core.detect_loop"),
    Target("repro.core.pipeline", "assemble_analysis",
           "core.assemble_analysis"),
    Target("repro.resilience.checkpoint", "CampaignCheckpoint.record_success",
           "resilience.CampaignCheckpoint.record_success"),
    Target("repro.resilience.checkpoint", "CampaignCheckpoint.load",
           "resilience.CampaignCheckpoint.load"),
    Target("repro.resilience.memo", "AnalysisMemo.get",
           "resilience.AnalysisMemo.get"),
    Target("repro.resilience.memo", "AnalysisMemo.put",
           "resilience.AnalysisMemo.put"),
    Target("repro.campaign.runner", "run_once", "campaign.run_once"),
    Target("repro.campaign.runner", "build_deployment",
           "campaign.build_deployment"),
    Target("repro.campaign.runner", "CampaignRunner.run",
           "campaign.CampaignRunner.run"),
]

#: The live ingest path inside ``repro stream serve``.
STREAM = [
    Target("repro.serve.server", "read_frame", "serve.read_frame",
           after=_after_read_frame),
    Target("repro.serve.server", "parse_record", "traces.parse_record"),
    Target("repro.core.incremental", "IncrementalAnalyzer.feed",
           "core.IncrementalAnalyzer.feed"),
    Target("repro.core.incremental", "IncrementalLoopDetector.push",
           "core.IncrementalLoopDetector.push"),
    Target("repro.core.incremental", "IncrementalAnalyzer.finalize",
           "core.IncrementalAnalyzer.finalize"),
]

#: ``repro broker serve``: one span per verb, keyed by its path.
BROKER = [
    Target("repro.campaign.broker", "CampaignBroker.handle",
           "campaign.CampaignBroker.handle", before=_key_from_path),
]

#: Both ends of the broker protocol: the client verbs (named by role),
#: the coordinator's drain wait, the worker loop and client backoff.
CLIENT = [
    *[Target("repro.campaign.broker_client", f"BrokerClient.{verb}",
             _client_span)
      for verb in ("open", "submit", "close", "take_completion",
                   "expire_overdue", "drain_dispositions", "claim",
                   "heartbeat", "complete", "write_worker_heartbeat",
                   "live_workers")],
    Target("repro.campaign.scheduler", "BrokerScheduler.drain",
           "campaign.BrokerScheduler.drain"),
    Target("repro.campaign.worker", "QueueWorker.run",
           "campaign.QueueWorker.run"),
    Target("repro.resilience.retry", "RetryPolicy.backoff_s",
           "resilience.RetryPolicy.backoff_s"),
]

#: What a launched ``repro`` command imports before it reports ready,
#: and which targets it wraps when traced.
COMMANDS = {
    "stream": (["repro.serve", "repro.core.incremental"], STREAM),
    "broker": (["repro.campaign.broker"], BROKER),
    "worker": (["repro.campaign.worker", "repro.campaign.broker_client"],
               SIMULATION + CLIENT),
}


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: ``kind`` says how it is derived.

    ``calls`` / ``self`` / ``total`` read spans named ``source`` (total
    counts only spans with no ancestor of the same name); ``counter``
    reads a wrapper counter; ``extra`` is measured by the workload
    itself.  All but ratios are per pass over the workload's input.
    """

    name: str
    kind: str
    source: str = ""

    @property
    def unit(self) -> str:
        if self.kind in ("calls", "counter", "sync_calls", "retries"):
            return "count"
        if self.kind in ("self", "total"):
            return "s"
        return _EXTRA_UNITS[self.name][0]

    @property
    def better(self) -> str:
        if self.kind in ("calls", "counter", "sync_calls", "retries",
                         "self", "total"):
            return "lower"
        return _EXTRA_UNITS[self.name][1]


_EXTRA_UNITS = {
    "serve.server.cpu_s": ("s", "lower"),
    "serve.server.busy_share": ("ratio", "lower"),
    "campaign.QueueWorker.useful_share": ("ratio", "higher"),
    "campaign.broker_overhead_ratio": ("ratio", "lower"),
    "runs_stolen_total": ("count", "lower"),
    "leases_expired_total": ("count", "lower"),
    "tracing.overhead_ratio": ("ratio", "lower"),
}


def _calls_self(span: str) -> list[LayerMetric]:
    return [LayerMetric(f"{span}.calls", "calls", span),
            LayerMetric(f"{span}.self_s", "self", span)]


PER_LAYER: list[LayerMetric] = [
    # Simulator: per-tick work, moves runs_per_s on `campaign`.
    LayerMetric("rrc.simulate_run.self_s", "self", "rrc.simulate_run"),
    *_calls_self("rrc.RadioSampler.observe"),
    *_calls_self("rrc.RadioSampler.observe_identity"),
    *_calls_self("radio.PropagationModel.fading_db"),
    LayerMetric("rrc.network.self_s", "self", "rrc.network"),
    LayerMetric("throughput.DataRateModel.self_s", "self",
                "throughput.DataRateModel"),
    *_calls_self("traces.SignalingTrace.append"),
    # Per-run simulator set-up: moves runs_per_s on `broker_drain`.
    *_calls_self("radio.PropagationModel.mean_rsrp_dbm"),
    # Record emit and checkpoint append: `campaign`, `broker_drain`.
    LayerMetric("traces.SignalingTrace.to_jsonl.self_s", "self",
                "traces.SignalingTrace.to_jsonl"),
    *_calls_self("resilience.CampaignCheckpoint.record_success"),
    # Checkpoint load, parse and batch analysis: `resume`.
    LayerMetric("resilience.CampaignCheckpoint.load.self_s", "self",
                "resilience.CampaignCheckpoint.load"),
    *_calls_self("traces.parse_trace"),
    LayerMetric("traces.records_parsed", "counter", "traces.records_parsed"),
    LayerMetric("core.analyze_trace.total_s", "total", "core.analyze_trace"),
    LayerMetric("core.RecordColumns.from_trace.self_s", "self",
                "core.RecordColumns.from_trace"),
    LayerMetric("core.extract_cellset_sequence.self_s", "self",
                "core.extract_cellset_sequence"),
    LayerMetric("core.IntervalColumns.from_intervals.self_s", "self",
                "core.IntervalColumns.from_intervals"),
    LayerMetric("core.detect_loop.self_s", "self", "core.detect_loop"),
    LayerMetric("core.assemble_analysis.self_s", "self",
                "core.assemble_analysis"),
    LayerMetric("campaign.build_deployment.self_s", "self",
                "campaign.build_deployment"),
    # The campaign loop itself: time no layer span covers.
    LayerMetric("campaign.CampaignRunner.run.self_s", "self",
                "campaign.CampaignRunner.run"),
    LayerMetric("campaign.CampaignRunner.run.total_s", "total",
                "campaign.CampaignRunner.run"),
    # Live ingest: moves records_per_s on `stream_fleet`.
    LayerMetric("serve.server.cpu_s", "extra"),
    LayerMetric("serve.server.busy_share", "extra"),
    LayerMetric("serve.read_frame.calls", "calls", "serve.read_frame"),
    LayerMetric("serve.read_frame.total_s", "total", "serve.read_frame"),
    LayerMetric("traces.parse_record.self_s", "self", "traces.parse_record"),
    *_calls_self("core.IncrementalAnalyzer.feed"),
    *_calls_self("core.IncrementalLoopDetector.push"),
    LayerMetric("core.IncrementalAnalyzer.finalize.self_s", "self",
                "core.IncrementalAnalyzer.finalize"),
    # Broker and queue plane: moves runs_per_s on `broker_drain`.
    *_calls_self("campaign.CampaignBroker.handle"),
    LayerMetric("campaign.CampaignBroker.handle.sync.calls", "sync_calls",
                "campaign.CampaignBroker.handle"),
    LayerMetric("campaign.BrokerClient.worker.total_s", "total",
                "campaign.BrokerClient.worker"),
    LayerMetric("campaign.BrokerClient.coordinator.total_s", "total",
                "campaign.BrokerClient.coordinator"),
    LayerMetric("campaign.BrokerScheduler.drain.wait_s", "total",
                "campaign.BrokerScheduler.drain"),
    LayerMetric("campaign.QueueWorker.useful_share", "extra"),
    LayerMetric("campaign.broker_overhead_ratio", "extra"),
    LayerMetric("resilience.AnalysisMemo.get.self_s", "self",
                "resilience.AnalysisMemo.get"),
    LayerMetric("resilience.AnalysisMemo.put.self_s", "self",
                "resilience.AnalysisMemo.put"),
    LayerMetric("broker_client_retries_total", "retries",
                "resilience.RetryPolicy.backoff_s"),
    LayerMetric("runs_stolen_total", "extra"),
    LayerMetric("leases_expired_total", "extra"),
    LayerMetric("tracing.overhead_ratio", "extra"),
]


@dataclass
class SpanTotals:
    """Per span name: calls, summed self time and outermost total time,
    accumulated over the span tables of every process of a run."""

    calls: dict[str, float]
    self_s: dict[str, float]
    total_s: dict[str, float]
    counters: dict[str, float]
    sync_calls: float = 0.0
    client_retries: float = 0.0


def span_totals(tables: list[SpanTable]) -> SpanTotals:
    totals = SpanTotals({}, {}, {}, {})
    for table in tables:
        if len(table):
            _accumulate(table, totals)
        for name, value in table.counters.items():
            totals.counters[name] = totals.counters.get(name, 0) + value
    return totals


def _accumulate(table: SpanTable, totals: SpanTotals) -> None:
    names = table.name
    width = len(table.names)
    own = self_times(table)
    duration = table.end - table.start
    parents = table.parent_rows()
    # Spans with an ancestor of their own name (recursion, or a public
    # method calling another wrapped under the same span name) are
    # already inside the outermost one's total.
    nested = np.zeros(len(table), dtype=bool)
    ancestor = parents.copy()
    while True:
        live = ancestor >= 0
        if not live.any():
            break
        nested[live] |= names[ancestor[live]] == names[live]
        ancestor[live] = parents[ancestor[live]]
    calls = np.bincount(names, minlength=width)
    own_sum = np.bincount(names, weights=own, minlength=width)
    outer_sum = np.bincount(names[~nested], weights=duration[~nested],
                            minlength=width)
    for code, name in enumerate(table.names):
        totals.calls[name] = totals.calls.get(name, 0) + float(calls[code])
        totals.self_s[name] = totals.self_s.get(name, 0) + float(own_sum[code])
        totals.total_s[name] = (totals.total_s.get(name, 0)
                                + float(outer_sum[code]))
    code_of = {name: code for code, name in enumerate(table.names)}
    handle = code_of.get("campaign.CampaignBroker.handle")
    if handle is not None and "/v1/sync" in table.keys:
        sync = table.keys.index("/v1/sync")
        totals.sync_calls += float(np.count_nonzero(
            (names == handle) & (table.key == sync)))
    backoff = code_of.get("resilience.RetryPolicy.backoff_s")
    if backoff is not None:
        clients = [code for name, code in code_of.items()
                   if name.startswith("campaign.BrokerClient.")]
        rows = np.nonzero(names == backoff)[0]
        rows = rows[parents[rows] >= 0]
        totals.client_retries += float(np.count_nonzero(
            np.isin(names[parents[rows]], clients)))


def layer_metrics(tables: list[SpanTable], passes: int,
                  extras: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric, per pass over the workload input.

    Layers the workload never reaches read 0.
    """
    totals = span_totals(tables)
    per_pass = 1.0 / max(passes, 1)
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        if metric.kind == "calls":
            value = totals.calls.get(metric.source, 0.0) * per_pass
        elif metric.kind == "self":
            value = totals.self_s.get(metric.source, 0.0) * per_pass
        elif metric.kind == "total":
            value = totals.total_s.get(metric.source, 0.0) * per_pass
        elif metric.kind == "counter":
            value = totals.counters.get(metric.source, 0.0) * per_pass
        elif metric.kind == "sync_calls":
            value = totals.sync_calls * per_pass
        elif metric.kind == "retries":
            value = totals.client_retries * per_pass
        elif metric.name == "campaign.QueueWorker.useful_share":
            wall = totals.total_s.get("campaign.QueueWorker.run", 0.0)
            useful = totals.total_s.get("campaign.run_once", 0.0)
            value = useful / wall if wall > 0 and \
                totals.calls.get("campaign.QueueWorker.run") else 0.0
        else:
            value = extras.get(metric.name, 0.0)
        values[metric.name] = value
    return values
