"""Print the size of the program: ``src/`` lines and settable options.

    python scripts/src_budget.py

Prints one JSON line:

* ``src_lines`` — newlines in every ``src/**/*.py`` file, the count
  ``find src -name '*.py' | xargs cat | wc -l`` gives;
* ``package_lines`` — the same count for each ``src/repro/<package>/``
  and for ``src/repro/cli.py``;
* ``flags`` — the ``--`` options each leaf command of
  ``repro.cli.build_parser()`` accepts (``--help`` excluded), keyed by
  the command (``"broker serve"``), and their sum ``flags_total``; a
  helper that adds the same flag to several commands counts once per
  command;
* ``config_fields`` — the dataclass fields of ``CampaignConfig`` and
  ``WorkerConfig``;
* ``settable_options`` — ``flags_total`` plus both field counts.

It measures the checkout it lives in, imports nothing but the program
and the standard library, and gates nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def line_count(paths) -> int:
    return sum(path.read_bytes().count(b"\n") for path in paths)


def package_lines() -> dict[str, int]:
    """Lines per ``src/repro/<package>/``, plus ``cli.py``."""
    repro = SRC / "repro"
    split = {package.name: line_count(package.rglob("*.py"))
             for package in sorted(repro.iterdir())
             if (package / "__init__.py").is_file()}
    split["cli.py"] = line_count([repro / "cli.py"])
    return split


def leaf_parsers(parser: argparse.ArgumentParser,
                 prefix: str = "") -> dict[str, argparse.ArgumentParser]:
    """Every runnable command under ``parser``, keyed by its words."""
    leaves: dict[str, argparse.ArgumentParser] = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                leaves.update(leaf_parsers(child, f"{prefix}{name} "))
    if not leaves and prefix:
        leaves[prefix.strip()] = parser
    return leaves


def flag_count(parser: argparse.ArgumentParser) -> int:
    return sum(1 for action in parser._actions
               if not isinstance(action, argparse._HelpAction)
               and any(option.startswith("--")
                       for option in action.option_strings))


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.campaign.runner import CampaignConfig
    from repro.campaign.worker import WorkerConfig
    from repro.cli import build_parser

    flags = {name: flag_count(parser)
             for name, parser in sorted(leaf_parsers(build_parser()).items())}
    fields = {config.__name__: len(dataclasses.fields(config))
              for config in (CampaignConfig, WorkerConfig)}
    flags_total = sum(flags.values())
    print(json.dumps({
        "src_lines": line_count(SRC.rglob("*.py")),
        "package_lines": package_lines(),
        "flags": flags,
        "flags_total": flags_total,
        "config_fields": fields,
        "settable_options": flags_total + sum(fields.values()),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
