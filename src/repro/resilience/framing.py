"""The one framed-file layer: CRC frame, appender, tail reader, atomic writer.

Every durable record goes through here: the campaign checkpoint, the
broker's task-queue spool (task and outcome payloads included), the
workers' telemetry spools and the analysis memo, and the broker's wire
speaks the same frame.

* **Frame** — ``<crc32: 8 lowercase hex> <payload>`` on bytes.  Line
  stores hold one frame per ``\\n``-terminated line around a JSON
  object; a memo entry is one frame around a pickle.
* **Append** (:func:`append_lines`) — one ``ab+`` handle: a torn tail
  (the line a killed writer left half-written) first gets its missing
  newline, so it stays one corrupt line instead of swallowing the
  first new one; then a header if the file is empty, the lines, flush,
  optional fsync, and a directory fsync when the call created the file.
* **Tail reader** (:class:`LineReader`) — complete lines from a byte
  offset on, one at a time; a torn tail is reported, never yielded.
* **Atomic replace** (:func:`write_atomic`) — a per-thread temp file
  renamed over the target; with fsync, the file and then each
  directory entry the call created are synced.

Writers serialize themselves (the task queue's flock, one process per
telemetry spool, the campaign runner's merge loop).
"""

from __future__ import annotations

import json
import os
import re
import threading
import zlib
from pathlib import Path
from typing import Iterator, Sequence

#: ``<8 lowercase hex digits><space>``: what a frame starts with.
_PREFIX = re.compile(rb"[0-9a-f]{8} ")


def frame_line(payload: bytes) -> bytes:
    """``<crc32 hex8> <payload>``, without a line end."""
    return b"%08x " % zlib.crc32(payload) + payload


def unframe_line(data: bytes) -> tuple[bytes, bool | None]:
    """``(payload, crc matches)``, or ``(data, None)`` for bytes without
    the frame prefix (a legacy v0 checkpoint line, or garbage)."""
    if _PREFIX.match(data):
        payload = data[9:]
        return payload, zlib.crc32(payload) == int(data[:8], 16)
    return data, None


def decode_object(payload: bytes) -> dict | None:
    """The JSON object ``payload`` holds, or ``None``: bytes that are not
    UTF-8, not JSON, nested past the recursion limit, hold an integer
    past the digit limit or hold another JSON value are as undecodable
    as torn ones."""
    try:
        value = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    return value if isinstance(value, dict) else None


def frame_object(obj: dict, sort_keys: bool = False) -> bytes:
    """One framed JSON line, newline included."""
    payload = json.dumps(obj, sort_keys=sort_keys).encode("utf-8")
    return frame_line(payload) + b"\n"


def load_framed_line(line: bytes) -> dict | None:
    """The JSON object a CRC-valid framed line carries, or ``None``."""
    payload, crc_ok = unframe_line(line.strip())
    return decode_object(payload) if crc_ok else None


def fsync_directory(path: str | Path) -> None:
    """Fsync a directory, so a new entry in it survives power loss.

    Best-effort: where directories cannot be opened or synced, the
    barrier is skipped rather than failing the write.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - platform specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform specific
        pass
    finally:
        os.close(fd)


def append_lines(path: Path, lines: Sequence[bytes], *, fsync: bool,
                 header: bytes | None = None) -> None:
    """Append ``lines`` (framed, each ending in ``\\n``) to ``path``;
    ``header`` goes first when the file is empty."""
    created = not path.exists()
    with open(path, "ab+") as handle:
        end = handle.seek(0, os.SEEK_END)
        parts = list(lines)
        if end == 0:
            if header is not None:
                parts.insert(0, header)
        else:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                parts.insert(0, b"\n")  # terminate the torn tail
        handle.write(b"".join(parts))
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    if created and fsync:
        fsync_directory(path.parent)


class LineReader:
    """The complete lines of a file from byte ``offset`` on.

    Iterating yields each ``\\n``-terminated line (newline included)
    and moves :attr:`offset` past it; an unterminated tail stops the
    pass and sets :attr:`torn`.  A missing file yields nothing.
    ``max_bytes`` caps one pass, though its first line always comes.
    """

    def __init__(self, path: str | Path, offset: int = 0,
                 max_bytes: int | None = None):
        self.path = Path(path)
        self.offset = offset
        self.max_bytes = max_bytes
        self.torn = False

    def __iter__(self) -> Iterator[bytes]:
        try:
            handle = open(self.path, "rb")
        except OSError:
            return
        with handle:
            handle.seek(self.offset)
            yielded = 0
            for line in handle:
                if not line.endswith(b"\n"):
                    self.torn = True
                    return
                if self.max_bytes is not None and yielded \
                        and yielded + len(line) > self.max_bytes:
                    return
                yielded += len(line)
                self.offset += len(line)
                yield line


def write_atomic(path: Path, data: bytes, *, fsync: bool = False) -> None:
    """Replace ``path`` with ``data`` by one rename, creating missing
    parent directories.  With ``fsync``: the file before the rename,
    then its directory, then the parent of each directory created."""
    made = []
    directory = path.parent
    while not directory.is_dir():
        made.append(directory)
        directory = directory.parent
    for each in reversed(made):
        each.mkdir(exist_ok=True)
    temp = path.with_name(
        f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}")
    try:
        with open(temp, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    if fsync:
        for each in [path, *made]:
            fsync_directory(each.parent)
