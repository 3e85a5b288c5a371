"""Measurement campaign harness.

Reproduces the paper's experiment design: three operator profiles
(OP_T / OP_A / OP_V) with their areas, channel plans and policies; the
six test phone models of Table 4; sparse and dense location sampling;
stationary / walking runs; and dataset assembly (Table 3).

A campaign runs sequentially, over a supervised process pool
(``--workers``), or through a ``repro broker serve`` that independent
``repro worker`` processes drain (:class:`BrokerScheduler`,
:class:`QueueWorker`); results, checkpoints and counters are the same
either way.
"""

from repro.campaign.devices import DEVICES, device
from repro.campaign.operators import (
    OPERATORS,
    AreaSpec,
    OperatorProfile,
    build_deployment,
    operator,
)
from repro.campaign.locations import dense_grid_locations, sparse_locations
from repro.campaign.runner import CampaignConfig, CampaignRunner, RunResult, run_once
from repro.campaign.scheduler import (
    BrokerScheduler,
    InlineScheduler,
    PoolScheduler,
    Scheduler,
)
from repro.campaign.worker import QueueWorker, WorkerConfig
from repro.campaign.dataset import CampaignResult, DatasetStatistics

__all__ = [
    "AreaSpec",
    "BrokerScheduler",
    "CampaignConfig",
    "CampaignResult",
    "CampaignRunner",
    "DEVICES",
    "DatasetStatistics",
    "InlineScheduler",
    "OPERATORS",
    "OperatorProfile",
    "PoolScheduler",
    "QueueWorker",
    "RunResult",
    "Scheduler",
    "WorkerConfig",
    "build_deployment",
    "dense_grid_locations",
    "device",
    "operator",
    "run_once",
    "sparse_locations",
]
