"""The one framed-file layer: frame, appender, tail reader, atomic writer.

Every durable store (checkpoint, task-queue spool, telemetry spools,
analysis memo, artifact store) and the broker's wire go through
:mod:`repro.resilience.framing`, so its contracts are tested once here:

* the ``<crc32 hex8> <payload>`` frame on bytes, and the JSON-object
  decode on top of it;
* :func:`append_lines`: a header only on an empty file, a torn tail
  terminated before the new lines, a directory fsync only when the
  call created the file;
* :class:`LineReader`: complete lines only, offsets that resume
  exactly, a torn tail reported and never handed out, ``max_bytes``;
* :func:`write_atomic`: one rename, parents created, no temp files
  left, per-thread temp names, fsync order;
* property tests: arbitrary bytes, any truncation and any bit flip
  give back the written payloads or skipped lines, never an exception,
  and an append after a truncation reads back whole.
"""

import os
import sys
import tempfile
import threading
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import framing
from repro.resilience.framing import (
    LineReader,
    append_lines,
    decode_object,
    frame_line,
    frame_object,
    load_framed_line,
    unframe_line,
    write_atomic,
)


def framed(payload: bytes) -> bytes:
    return frame_line(payload) + b"\n"


class TestFrame:
    def test_format_is_crc_hex_space_payload(self):
        payload = b'{"ev": "close", "total": 1}'
        assert frame_line(payload) \
            == b"%08x " % zlib.crc32(payload) + payload

    def test_unframe_verdicts(self):
        line = frame_line(b"payload")
        assert unframe_line(line) == (b"payload", True)
        assert unframe_line(line[:-1] + b"X") == (b"payloaX", False)
        assert unframe_line(b'{"legacy": 1}') == (b'{"legacy": 1}', None)
        assert unframe_line(b"DEADBEEF upper-case hex") \
            == (b"DEADBEEF upper-case hex", None)

    def test_frame_object_is_one_line(self):
        line = frame_object({"b": 1, "a": [2]}, sort_keys=True)
        assert line == framed(b'{"a": [2], "b": 1}')
        assert load_framed_line(line) == {"a": [2], "b": 1}

    @pytest.mark.parametrize("payload", [
        b"[1, 2]", b"not json", b'{"a": "\xff"}', b"1" * 5000,
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-object", "not-json", "not-utf8", "digit-limit",
            "recursion-limit"])
    def test_crc_valid_undecodable_payload_is_none(self, payload):
        assert decode_object(payload) is None
        assert load_framed_line(framed(payload)) is None


class TestAppendLines:
    def test_header_only_on_an_empty_file(self, tmp_path):
        path = tmp_path / "f"
        append_lines(path, [framed(b"one")], fsync=False,
                     header=framed(b"head"))
        append_lines(path, [framed(b"two")], fsync=False,
                     header=framed(b"head"))
        assert path.read_bytes() \
            == framed(b"head") + framed(b"one") + framed(b"two")

    def test_torn_tail_gets_its_newline_first(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(framed(b"one") + b"0123abcd {\"to")
        append_lines(path, [framed(b"two")], fsync=False)
        assert path.read_bytes() == framed(b"one") + b"0123abcd {\"to\n" \
            + framed(b"two")

    def test_directory_fsynced_once_when_the_call_creates_the_file(
            self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(framing, "fsync_directory",
                            lambda path: calls.append(Path(path)))
        append_lines(tmp_path / "f", [framed(b"one")], fsync=False)
        assert calls == []  # no fsync asked for
        append_lines(tmp_path / "g", [framed(b"one")], fsync=True)
        append_lines(tmp_path / "g", [framed(b"two")], fsync=True)
        assert calls == [tmp_path]


class TestLineReader:
    def test_complete_lines_and_resumable_offsets(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"a\nbb\n\nccc")
        reader = LineReader(path)
        assert list(reader) == [b"a\n", b"bb\n", b"\n"]
        assert (reader.offset, reader.torn) == (6, True)
        with path.open("ab") as handle:
            handle.write(b"\nd\n")
        again = LineReader(path, reader.offset)
        assert list(again) == [b"ccc\n", b"d\n"]
        assert (again.offset, again.torn) == (12, False)

    def test_missing_file_yields_nothing(self, tmp_path):
        reader = LineReader(tmp_path / "absent", offset=7)
        assert list(reader) == []
        assert (reader.offset, reader.torn) == (7, False)

    def test_max_bytes_stops_between_lines_but_always_yields_one(
            self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"aaaa\nbb\ncc\n")
        reader = LineReader(path, max_bytes=8)
        assert list(reader) == [b"aaaa\n", b"bb\n"]
        assert reader.offset == 8
        tiny = LineReader(path, max_bytes=1)
        assert list(tiny) == [b"aaaa\n"]
        assert tiny.offset == 5

    def test_offset_advances_as_lines_are_consumed(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"a\nbb\nccc\n")
        reader = LineReader(path)
        for line in reader:
            if line == b"bb\n":
                break
        assert reader.offset == 5


class TestWriteAtomic:
    def test_replaces_and_creates_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "f"
        write_atomic(path, b"first")
        write_atomic(path, b"second")
        assert path.read_bytes() == b"second"
        assert sorted(p.name for p in path.parent.iterdir()) == ["f"]

    def test_fsync_order_file_then_created_directories(self, tmp_path,
                                                       monkeypatch):
        synced = []
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(os.fstat(fd).st_ino))
        path = tmp_path / "a" / "b" / "f"
        write_atomic(path, b"data", fsync=True)
        inodes = [p.stat().st_ino
                  for p in (path, path.parent, path.parent.parent, tmp_path)]
        assert synced == inodes  # the file, its directory, then b's, a's
        synced.clear()
        write_atomic(path, b"again", fsync=True)
        assert synced == [path.stat().st_ino, path.parent.stat().st_ino]
        synced.clear()
        write_atomic(path, b"quiet")
        assert synced == []

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(tmp_path / "f", b"data")
        assert list(tmp_path.iterdir()) == []

    def test_threads_writing_one_path_at_once(self, tmp_path):
        path = tmp_path / "f"
        errors = []
        switch = sys.getswitchinterval()

        def write_all(tag):
            try:
                for index in range(100):
                    write_atomic(path, f"{tag}-{index}".encode())
            except OSError as error:  # pragma: no cover - the failure
                errors.append(error)

        threads = [threading.Thread(target=write_all, args=(tag,))
                   for tag in range(6)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert path.read_bytes().endswith(b"-99")
        assert [p.name for p in tmp_path.iterdir()] == ["f"]


# ----------------------------------------------------------------------
# Property suite: the frame and its reader under corruption
# ----------------------------------------------------------------------

#: Line payloads: arbitrary bytes, minus the line terminator.
PAYLOADS = st.lists(st.binary(max_size=40).map(
    lambda payload: payload.replace(b"\n", b"")), min_size=1, max_size=6)


def read_back(path: Path) -> tuple[list[bytes], int, LineReader]:
    """The payloads of CRC-valid lines, the count of other complete
    lines, and the reader."""
    reader = LineReader(path)
    good, bad = [], 0
    for line in reader:
        payload, crc_ok = unframe_line(line[:-1])
        if crc_ok:
            good.append(payload)
        else:
            bad += 1
    return good, bad, reader


def store(path: Path, payloads: list[bytes]) -> None:
    append_lines(path, [framed(payload) for payload in payloads],
                 fsync=False)


class TestFrameFuzz:
    @settings(max_examples=200, deadline=None)
    @given(payloads=PAYLOADS, cut=st.integers(min_value=0))
    def test_any_truncation_reads_a_prefix_and_later_appends_whole(
            self, payloads, cut):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f"
            store(path, payloads)
            data = path.read_bytes()
            kept = data[:min(cut, len(data))]
            path.write_bytes(kept)
            good, bad, reader = read_back(path)
            store(path, [b"new-1", b"new-2"])
            after, bad_after, _ = read_back(path)
        whole = kept.rfind(b"\n") + 1
        fragment = kept[whole:]
        assert good == payloads[:len(good)] and bad == 0
        assert reader.offset == whole
        assert reader.torn == bool(fragment)
        # The fragment becomes one line of its own: valid only when the
        # cut took just its newline.
        complete = framed(payloads[len(good)])[:-1] if fragment else None
        assert after == good + ([payloads[len(good)]]
                                if fragment and fragment == complete
                                else []) + [b"new-1", b"new-2"]
        assert bad_after == (1 if fragment and fragment != complete else 0)

    @settings(max_examples=200, deadline=None)
    @given(payloads=PAYLOADS, data=st.data())
    def test_any_bit_flip_loses_at_most_the_hit_lines(self, payloads,
                                                      data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f"
            store(path, payloads)
            raw = bytearray(path.read_bytes())
            position = data.draw(st.integers(0, len(raw) - 1))
            raw[position] ^= 1 << data.draw(st.integers(0, 7))
            path.write_bytes(bytes(raw))
            good, _bad, _reader = read_back(path)
        # CRC-32 catches every single-bit error: what reads back is the
        # written payloads in order, minus at most two lines (a flip
        # into or out of a newline splits or joins lines).
        remaining = iter(payloads)
        assert all(payload in remaining for payload in good)
        assert len(good) >= len(payloads) - 2

    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(max_size=400))
    def test_arbitrary_bytes_never_raise(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f"
            path.write_bytes(raw)
            lines = list(LineReader(path))
            for line in lines:
                unframe_line(line.strip())
                decoded = load_framed_line(line)
                assert decoded is None or isinstance(decoded, dict)
        whole = raw.rfind(b"\n") + 1
        assert b"".join(lines) == raw[:whole]
        assert load_framed_line(raw) is None \
            or isinstance(load_framed_line(raw), dict)
