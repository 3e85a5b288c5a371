"""Start a ``repro`` CLI command for the benchmark, optionally traced.

    python3 perfbench/launch.py [--trace-out PATH] <repro arguments...>

The launcher imports what the command needs, installs the span wrappers
when ``--trace-out`` is given, prints ``perfbench-launcher ready`` on
stdout and only then runs ``repro.cli.main``, so the benchmark knows
the process is fully imported before it starts timing.  An argument
spelled ``{stdin}`` is replaced by one line read from stdin after the
ready line: a worker starts (and imports) while its broker does, before
the broker's URL is known.  Traced spans are written to PATH when the
command returns, including after its SIGTERM stop.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from perfbench.layers import COMMANDS
    from perfbench.spans import SpanLog, install

    modules, targets = COMMANDS[argv[0]]
    for module in modules:
        importlib.import_module(module)
    import repro.cli

    log = None
    if trace_out is not None:
        log = SpanLog()
        install(log, targets)
    print("perfbench-launcher ready", flush=True)
    argv = [sys.stdin.readline().strip() if arg == "{stdin}" else arg
            for arg in argv]
    try:
        return repro.cli.main(argv)
    finally:
        if log is not None:
            log.table().save(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
