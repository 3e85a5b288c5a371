"""Simulator output must not depend on the interpreter process.

Cells are keyed by hash-randomised ``Rat``/``CellIdentity`` values and
seeded draws reuse a per-thread generator; neither may leak into a
trace.  Two ``repro simulate`` processes with different
``PYTHONHASHSEED`` values must write the same bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"


def simulate(directory: Path, hash_seed: int) -> tuple[str, bytes]:
    directory.mkdir()
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "PYTHONHASHSEED": str(hash_seed)}
    done = subprocess.run(
        [sys.executable, "-m", "repro", "simulate", "--operator", "OP_T",
         "--duration", "60", "--out", "trace.jsonl"],
        cwd=directory, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout, (directory / "trace.jsonl").read_bytes()


def test_simulate_is_independent_of_the_hash_seed(tmp_path):
    first = simulate(tmp_path / "hash-0", 0)
    second = simulate(tmp_path / "hash-1", 1)
    assert first[1].count(b"\n") > 60
    assert first == second
