"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from anywhere; the program under test is ``src/repro`` next to this
directory.  Untraced runs (``--trace 0``) print the end-to-end metrics,
traced runs (``--trace 1``) the per-layer table.  Either way the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; its throughputs and times are in reference
seconds (see ``perfbench/calibration.py``).  The line before it
fingerprints the machine and gives the run's median probe time and its
throughputs and set-up time in host seconds.
README.md explains the workloads and how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("campaign", "resume", "stream_fleet", "broker_drain")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="all: each workload in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measured passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing the per-layer table")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for smoke tests")
    return parser.parse_args(argv)


def import_repro(workload: str) -> float:
    """Import the program under test from ``src/``; returns seconds."""
    src = (ROOT / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import repro.campaign  # noqa: F401
    import repro.core.pipeline  # noqa: F401
    if workload == "stream_fleet":
        import repro.serve  # noqa: F401
    if workload == "broker_drain":
        import repro.campaign.broker_client  # noqa: F401
    elapsed = time.perf_counter() - start
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {src}")
    return elapsed


def fingerprint() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def peak_rss_mib() -> float:
    """Peak RSS of this process and of every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def throughputs(rates: list[float], records_per_run: float,
                workload: str) -> dict[str, float]:
    """``runs_per_s`` and ``records_per_s`` from per-pass rates (records
    on ``stream_fleet``, runs elsewhere): the median pass."""
    rate = statistics.median(rates)
    if workload == "stream_fleet":
        return {"runs_per_s": rate / records_per_run, "records_per_s": rate}
    return {"runs_per_s": rate, "records_per_s": rate * records_per_run}


def layer_table(out, workload: str, to_reference: float) -> dict:
    from perfbench.layers import PER_LAYER, layer_metrics

    values = layer_metrics(out.tables, out.passes, out.extras)
    for metric in PER_LAYER:
        if metric.unit == "s":
            values[metric.name] *= to_reference
    print(f"layer table: {workload}, per pass over the input, "
          f"{out.passes} traced passes, tracing overhead "
          f"x{out.extras.get('tracing.overhead_ratio', 0.0):.2f}")
    for metric in PER_LAYER:
        layer = metric.name.split(".")[0] if "." in metric.name \
            else "campaign"
        print(f"  {layer:<11} {metric.name:<48} "
              f"{values[metric.name]:>14.6g} {metric.unit}")
    return {metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in PER_LAYER}


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (so imports and peak RSS are
    each workload's own); prints their metrics and one combined result
    whose metric names are prefixed with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {done.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT))
    from perfbench.calibration import PROBE_REFERENCE_S, probe, to_reference

    before = probe()
    import_s = import_repro(args.workload)
    import_scaled = to_reference(import_s, before, probe())
    from perfbench import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = workloads.Context(
        root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace),
        scale=workloads.FULL if args.scale == "full" else workloads.TINY)
    try:
        out = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for note in out.notes:
        print(note)
    calibration_s = statistics.median(out.probes)
    print("pass rates (host seconds): "
          + ", ".join(f"{rate:.4g}" for rate in out.rates))
    print("pass rates (reference seconds): "
          + ", ".join(f"{rate:.4g}" for rate in out.scaled))
    print(f"setup (host seconds): import {import_s:.3f} + median of "
          + ", ".join(f"{value:.3f}" for value in out.setup_s))
    host = {}
    if args.trace:
        metrics = layer_table(out, args.workload,
                              PROBE_REFERENCE_S / calibration_s)
    else:
        metrics = {name: {"value": value, "unit": "1/s"} for name, value
                   in throughputs(out.scaled, out.records_per_run,
                                  args.workload).items()}
        metrics["setup_s"] = {
            "value": import_scaled + statistics.median(out.setup_scaled),
            "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mib(), "unit": "MiB"}
        host = throughputs(out.rates, out.records_per_run, args.workload)
        host["setup_s"] = import_s + statistics.median(out.setup_s)
        for name, metric in metrics.items():
            print(f"{args.workload} {name} = {metric['value']:.6g} "
                  f"{metric['unit']}")
    print("machine " + json.dumps({
        "fingerprint": fingerprint(), "calibration_s": calibration_s,
        "reference_s": PROBE_REFERENCE_S, "host_seconds": host}))
    print(json.dumps({"correct": out.failed == 0 and out.attempted > 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
