"""Campaign progress: rate, ETA and per-outcome tallies, folded from events.

:class:`StderrProgressReporter` is an :class:`~repro.obs.events.EventLog`
sink: the campaign coordinator already emits one structured event per
run outcome, and the reporter folds those (the table is in DESIGN §5.2)
into a single redrawn status line::

    [  42/120]  35.0%  ok=40 quarantined=1 timeout=1 restored=0 retries=3  2.1 run/s eta 37s

The CLI's ``--progress`` flag attaches it next to the ``--log-level``
sink, which erases the status line
(:meth:`~StderrProgressReporter.clear`) before each record it writes
and redraws it after, so records never land on the status line.
Timed-out runs get their own tally (they are quarantined too, but a
deadline miss is operationally different from a crash or a parse
failure, so the two must not collapse into one "failed" number).

Rates come from the injectable monotonic clock, so tests drive the
reporter with a fake clock and assert exact output.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, TextIO

from repro.obs.events import Event

__all__ = ["StderrProgressReporter"]


class StderrProgressReporter:
    """Single-line live progress on a stream (stderr by default)."""

    def __init__(self, stream: TextIO | None = None,
                 clock: Callable[[], float] = time.monotonic):
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.total = 0
        self.completed = 0
        self.quarantined = 0
        self.timed_out = 0
        self.restored = 0
        self.retries = 0
        self._start_s: float | None = None
        self._finished = False
        self._drawn = 0  # width of the status line left open on the stream
        # The last event was a pool kill, counted as a retry before the
        # next one says whether the run was resubmitted.
        self._open_kill = False

    def __call__(self, event: Event) -> None:
        """Fold one event into the tallies; other events are ignored."""
        name, fields = event.name, event.fields
        if name in ("campaign.finished", "campaign.aborted"):
            self._finish()
            return
        if name == "campaign.started":
            self.total = fields.get("scheduled", 0)
            self._start_s = self.clock()
            self._finished = False
        elif name == "run.restored":
            self.completed += 1
            self.restored += 1
        elif name in ("supervision.hung_run", "supervision.worker_crash"):
            self.retries += 1  # the pool resubmits the killed run ...
            self._open_kill = True
        elif name == "breaker.open":
            self.retries -= self._open_kill  # ... unless the kill tripped
            self._open_kill = False
        elif name in ("run.completed", "run.quarantined",
                      "supervision.quarantined"):
            if name == "supervision.quarantined":
                self.retries -= self._open_kill  # ... or gave the run up
            else:
                self.retries += fields.get("attempts", 1) - 1
            self._open_kill = False
            if name == "run.completed":
                self.completed += 1
            elif fields.get("timed_out"):
                self.timed_out += 1
            else:
                self.quarantined += 1
        else:
            return
        self._draw()

    def _finish(self) -> None:
        if self._start_s is None or self._finished:
            return
        self._finished = True
        self._drawn = 0
        self.stream.write("\r" + self.render() + "\n")
        self.stream.flush()

    def clear(self) -> None:
        """Erase the open status line, so the next write starts a line."""
        if self._drawn:
            self.stream.write("\r" + " " * self._drawn + "\r")

    def redraw(self) -> None:
        """Draw the open status line again after another writer's line
        (whose newline left the cursor at the start of a fresh line)."""
        if self._drawn:
            self._draw(start="")

    # -- accounting ----------------------------------------------------

    @property
    def done(self) -> int:
        """Runs with a final outcome (completed, quarantined, timed out)."""
        return self.completed + self.quarantined + self.timed_out

    def elapsed_s(self) -> float:
        if self._start_s is None:
            return 0.0
        return self.clock() - self._start_s

    def rate_per_s(self) -> float:
        elapsed = self.elapsed_s()
        if elapsed <= 0.0:
            return 0.0
        return self.done / elapsed

    def eta_s(self) -> float | None:
        rate = self.rate_per_s()
        if rate <= 0.0 or not self.total:
            return None
        return max(0, self.total - self.done) / rate

    def snapshot(self) -> dict:
        """Final-snapshot dict: what the CLI flushes on exit/interrupt."""
        return {
            "total": self.total,
            "done": self.done,
            "completed": self.completed,
            "quarantined": self.quarantined,
            "timed_out": self.timed_out,
            "restored": self.restored,
            "retries": self.retries,
            "elapsed_s": self.elapsed_s(),
            "rate_per_s": self.rate_per_s(),
        }

    def render(self) -> str:
        percent = 100.0 * self.done / self.total if self.total else 0.0
        width = len(str(self.total))
        line = (f"[{self.done:{width}d}/{self.total}] {percent:5.1f}%  "
                f"ok={self.completed} quarantined={self.quarantined} "
                f"timeout={self.timed_out} "
                f"restored={self.restored} retries={self.retries}")
        rate = self.rate_per_s()
        if rate > 0.0:
            line += f"  {rate:.1f} run/s"
            eta = self.eta_s()
            if eta is not None:
                line += f" eta {eta:.0f}s"
        return line

    def _draw(self, start: str = "\r") -> None:
        line = self.render()
        self.stream.write(start + line)
        self.stream.flush()
        self._drawn = len(line)
