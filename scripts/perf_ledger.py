"""Run perfbench in one or more checkouts and append each run to a ledger.

    python scripts/perf_ledger.py --workload campaign --seed 1
    python scripts/perf_ledger.py --checkout ../parent --checkout . \
        --workload campaign --seed 1 --seed 5 --rounds 10 --trace

Each run is ``perfbench/run.py --seconds 15`` of one workload and seed,
executed with the checkout's own ``perfbench/run.py`` (so it measures
that checkout's ``src/``).  With several checkouts the runs alternate
between them, round by round, so slow drift of the machine hits every
checkout alike.  ``--trace`` adds one ``--trace 1`` run per checkout,
workload and seed after the rounds.  Any checkout works: this
repository, a ``git worktree`` or a ``git clone`` of another commit.

Every run appends one JSON line to the ledger (default
``BENCH_perfbench.json`` at the repository root) as soon as it ends:
the checkout's commit, whether its ``src/`` or ``perfbench/`` differ
from that commit (``dirty``), a digest of its ``src/`` files, the
workload, seed and traced flag, and perfbench's result line and
``machine`` line.  A run that fails is recorded with
its exit code and the tail of its stderr, and the script exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("campaign", "resume", "stream_fleet", "broker_drain")
SECONDS = 15


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", type=Path,
                        help="checkout to measure (repeatable; default: "
                             "this repository)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help="benchmark seed (repeatable; default: 1)")
    parser.add_argument("--rounds", type=int, default=1,
                        help="untraced runs per checkout, workload and seed")
    parser.add_argument("--trace", action="store_true",
                        help="also one --trace 1 run per checkout, "
                             "workload and seed")
    parser.add_argument("--ledger", type=Path,
                        default=ROOT / "BENCH_perfbench.json")
    return parser.parse_args(argv)


def git(checkout: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def src_sha256(checkout: Path) -> str:
    """Digest of every ``src/**/*.py`` file: path and bytes, in order."""
    digest = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def identify(checkout: Path) -> dict:
    status = git(checkout, "status", "--porcelain", "--", "src", "perfbench")
    return {"commit": git(checkout, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_sha256": src_sha256(checkout)}


def run_once(checkout: Path, workload: str, seed: int,
             traced: bool) -> tuple[dict, bool]:
    """One perfbench run; returns its ledger entry and whether it passed."""
    command = [sys.executable, str(checkout / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "1" if traced else "0"]
    started = time.time()
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    entry = {**identify(checkout), "workload": workload, "seed": seed, "traced": traced,
             "started_unix_s": round(started, 1)}
    machine = [line for line in lines if line.startswith("machine ")]
    try:
        entry["result"] = json.loads(lines[-1])
        entry["machine"] = json.loads(machine[-1].split(" ", 1)[1])
    except (IndexError, ValueError):
        entry["result"] = entry["machine"] = None
    ok = done.returncode == 0 and entry["result"] is not None \
        and entry["result"].get("correct") is True
    if not ok:
        entry["exit_code"] = done.returncode
        entry["stderr_tail"] = done.stderr[-2000:]
    return entry, ok


def summary(entry: dict) -> str:
    result = entry["result"] or {}
    metrics = result.get("metrics", {})
    shown = ", ".join(f"{name} {metrics[name]['value']:.4g}"
                      for name in ("runs_per_s", "setup_s", "peak_rss_mb")
                      if name in metrics)
    return (f"{entry['workload']} seed {entry['seed']}"
            f"{' traced' if entry['traced'] else ''} "
            f"@ {(entry['commit'] or '?')[:10]}"
            f"{'+dirty' if entry['dirty'] else ''} "
            f"src {entry['src_sha256'][:10]}: {shown or 'see ledger'}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    checkouts = [path.resolve() for path in args.checkout or [ROOT]]
    for checkout in checkouts:
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py in {checkout}", file=sys.stderr)
            return 1
    workloads = args.workload or list(WORKLOADS)
    seeds = args.seed or [1]
    plan = [(checkout, workload, seed, False)
            for _ in range(args.rounds) for seed in seeds
            for workload in workloads for checkout in checkouts]
    if args.trace:
        plan += [(checkout, workload, seed, True) for seed in seeds
                 for workload in workloads for checkout in checkouts]
    failed = 0
    for checkout, workload, seed, traced in plan:
        entry, ok = run_once(checkout, workload, seed, traced)
        with open(args.ledger, "a", encoding="utf-8") as ledger:
            ledger.write(json.dumps(entry, sort_keys=True) + "\n")
        print(("" if ok else "FAILED ") + summary(entry), flush=True)
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
