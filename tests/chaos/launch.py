"""Start a ``repro`` CLI command with the chaos tooling installed.

    python tests/chaos/launch.py [--net-fault-rate RATE]
        [--net-fault-seed SEED] [--fail-after N] <repro arguments...>

``--net-fault-rate`` wraps every broker transport the command builds
(``repro.campaign.broker_client.HTTPTransport``) in a seeded
:class:`~tests.chaos.netfaults.NetworkFaultInjector`, which drops,
duplicates, delays, 503s or mangles that fraction of the exchanges.
``--fail-after N`` makes a ``repro worker`` SIGKILL itself right after
its N-th claim, before executing it: it first emits
``worker.fail_injection`` and flushes its telemetry spool, so the
victim's claim and the marker are durable when the kill lands, and
exactly one orphaned lease is left for the survivors to steal.  The
remaining arguments then run through ``repro.cli.main``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def install_network_faults(rate: float, seed: int) -> None:
    """Every ``HTTPTransport`` built from now on sends through a seeded
    fault injector (one injector, and one fault schedule, per client)."""
    from repro.campaign import broker_client
    from tests.chaos.netfaults import NetworkFaultInjector

    transport = broker_client.HTTPTransport

    def faulty_transport(base_url: str, **kwargs) -> NetworkFaultInjector:
        return NetworkFaultInjector(transport(base_url, **kwargs),
                                    seed=seed, rate=rate)

    broker_client.HTTPTransport = faulty_transport


def install_fail_after(claims: int) -> None:
    """SIGKILL the worker once it holds its ``claims``-th claim."""
    from repro.campaign.worker import QueueWorker

    execute_claim = QueueWorker._execute_claim

    def fail_or_execute(worker: QueueWorker, claim) -> None:
        if worker.claims >= claims:
            worker.obs.events.emit("worker.fail_injection",
                                   severity="warning", claims=worker.claims)
            worker._flush_telemetry()
            print(f"worker {worker.config.worker_id}: fault injection — "
                  f"SIGKILL after claim {worker.claims}", file=sys.stderr)
            os.kill(os.getpid(), signal.SIGKILL)
        execute_claim(worker, claim)

    QueueWorker._execute_claim = fail_or_execute


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="tests/chaos/launch.py",
        description="run a repro command under injected faults")
    parser.add_argument("--net-fault-rate", type=float, default=0.0,
                        metavar="RATE",
                        help="probability each broker request/response "
                             "is faulted (default 0 = off)")
    parser.add_argument("--net-fault-seed", type=int, default=0,
                        metavar="SEED", help="fault schedule seed")
    parser.add_argument("--fail-after", type=int, default=None, metavar="N",
                        help="repro worker: SIGKILL right after claim N")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the repro command and its arguments")
    args = parser.parse_args(argv)
    if args.net_fault_rate > 0.0:
        install_network_faults(args.net_fault_rate, args.net_fault_seed)
    if args.fail_after is not None:
        install_fail_after(args.fail_after)
    import repro.cli

    return repro.cli.main(args.command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
