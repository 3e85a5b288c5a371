"""Durable checkpoints: v1 framing, identity, corruption tolerance.

The v1 format promises three things a killed or corrupted campaign can
lean on: (1) a header identity hash that refuses resuming a different
campaign's checkpoint, (2) a CRC32 frame per line so *mid-file*
corruption is detected and quarantined, not just the truncated tail,
and (3) legacy headerless (v0) files keep loading.  The property tests
drive the loader with random truncations and bit flips: it must never
raise, and what it returns must always be a consistent subset of what
was written.
"""

import json
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import instrumented, make_instrumentation
from repro.resilience import framing
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    CheckpointMismatchError,
)
from repro.resilience.framing import frame_line, fsync_directory, unframe_line
from tests.test_obs_metrics import FakeClock


def write_checkpoint(path, identity="cafe1234", n_entries=4, fsync=True):
    checkpoint = CampaignCheckpoint(path, identity=identity, fsync=fsync)
    for index in range(n_entries):
        if index % 3 == 2:
            checkpoint.record_failure(("OP_V", "A9", f"A9-P{index}", index),
                                      "ValueError: boom", attempts=2)
        else:
            checkpoint.record_success(("OP_V", "A9", f"A9-P{index}", index),
                                      f'{{"trace": {index}}}')
    return checkpoint


class TestV1Format:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "c.ckpt"
        checkpoint = write_checkpoint(path)
        report = checkpoint.load_report()
        assert report.version == 1
        assert report.identity == "cafe1234"
        assert len(report.entries) == 4
        assert report.lines_skipped == 0
        # Header occupies line 1 but is not an entry.
        assert report.lines_total == 5

    def test_every_line_is_crc_framed(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, n_entries=2)
        for line in path.read_text().splitlines():
            prefix, payload = line.split(" ", 1)
            assert int(prefix, 16) == zlib.crc32(payload.encode()) & 0xFFFFFFFF
            json.loads(payload)

    def test_headerless_writer_for_direct_manipulation(self, tmp_path):
        path = tmp_path / "c.ckpt"
        checkpoint = CampaignCheckpoint(path)  # no identity: no header
        checkpoint.record_success(("OP", "A", "L", 0), "{}")
        report = checkpoint.load_report()
        assert report.version == 0
        assert len(report.entries) == 1

    def test_no_fsync_still_round_trips(self, tmp_path):
        path = tmp_path / "c.ckpt"
        checkpoint = write_checkpoint(path, fsync=False)
        assert len(checkpoint.load()) == 4


class TestIdentityCheck:
    def test_mismatched_identity_refuses_to_load(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, identity="aaaa0001")
        foreign = CampaignCheckpoint(path, identity="bbbb0002")
        with pytest.raises(CheckpointMismatchError) as info:
            foreign.load()
        assert "aaaa0001" in str(info.value)
        assert "bbbb0002" in str(info.value)

    def test_matching_identity_loads(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, identity="aaaa0001")
        assert len(CampaignCheckpoint(path, identity="aaaa0001").load()) == 4

    def test_identityless_reader_skips_the_check(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, identity="aaaa0001")
        assert len(CampaignCheckpoint(path).load()) == 4

    def test_v0_file_loads_under_any_identity(self, tmp_path):
        # Legacy headerless bare-JSON checkpoints carry no identity to
        # verify; they must keep loading (backward compatibility).
        path = tmp_path / "old.ckpt"
        with path.open("w") as handle:
            for index in range(3):
                handle.write(json.dumps({
                    "key": ["OP_V", "A9", f"A9-P{index}", index],
                    "status": "ok", "trace": "{}"}) + "\n")
        report = CampaignCheckpoint(path, identity="cafe1234").load_report()
        assert report.version == 0
        assert report.identity is None
        assert len(report.entries) == 3
        assert report.lines_skipped == 0


class TestFramingAndDirectoryFsync:
    """The shared frame and the create-time directory fsync.

    ``frame_line``/``unframe_line`` (:mod:`repro.resilience.framing`)
    frame every durable store, and the directory fsync on file
    *creation* is what makes a brand-new checkpoint (or spool) survive
    a power cut — an fsynced file whose directory entry was never
    flushed simply vanishes.
    """

    def test_frame_round_trip(self):
        payload = b'{"key": ["OP_V", "A9", "A9-P0", 0]}'
        text, crc_ok = unframe_line(frame_line(payload))
        assert (text, crc_ok) == (payload, True)

    def test_corrupted_frame_fails_the_crc(self):
        framed = frame_line(b"payload")
        _, crc_ok = unframe_line(framed[:-1] + b"X")
        assert crc_ok is False

    def test_fsync_directory_flushes_a_real_directory(self, tmp_path):
        fsync_directory(tmp_path)  # must not raise on a plain directory

    def test_directory_fsynced_exactly_once_on_creation(
            self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(framing, "fsync_directory",
                            lambda path: calls.append(Path(path)))
        checkpoint = CampaignCheckpoint(tmp_path / "c.ckpt",
                                        identity="cafe1234")
        checkpoint.record_success(("OP_V", "A9", "A9-P0", 0), "{}")
        assert calls == [tmp_path]  # the new file's directory entry
        checkpoint.record_success(("OP_V", "A9", "A9-P1", 1), "{}")
        assert calls == [tmp_path]  # appends never re-fsync the directory

    def test_no_fsync_mode_skips_the_directory_fsync(
            self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(framing, "fsync_directory",
                            lambda path: calls.append(Path(path)))
        checkpoint = CampaignCheckpoint(tmp_path / "c.ckpt",
                                        identity="cafe1234", fsync=False)
        checkpoint.record_success(("OP_V", "A9", "A9-P0", 0), "{}")
        assert calls == []


class TestCorruptionTolerance:
    def test_mid_file_bit_flip_skips_only_that_entry(self, tmp_path, caplog):
        path = tmp_path / "c.ckpt"
        full = write_checkpoint(path).load()
        lines = path.read_text().splitlines()
        # Corrupt the payload of entry 2 (line 3: header + 2 entries in).
        lines[2] = lines[2][:-5] + "XYZZY"
        path.write_text("\n".join(lines) + "\n")

        obs = make_instrumentation(clock=FakeClock())
        with instrumented(obs), caplog.at_level("WARNING"):
            report = CampaignCheckpoint(path, identity="cafe1234") \
                .load_report()
        assert report.skipped_lines == [3]
        assert len(report.entries) == len(full) - 1
        assert obs.registry.counter(
            "checkpoint_lines_skipped_total").total() == 1
        assert any("line 3" in record.getMessage()
                   for record in caplog.records)

    def test_truncated_tail_keeps_the_prefix(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 40])  # chop into the last line
        report = CampaignCheckpoint(path, identity="cafe1234").load_report()
        assert len(report.entries) == 3

    def test_corrupted_header_degrades_to_headerless(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, identity="aaaa0001")
        lines = path.read_text().splitlines()
        lines[0] = "0badc0de " + lines[0].split(" ", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        # The header's CRC no longer matches: it is skipped like any
        # corrupt line, the identity check cannot run, entries survive.
        report = CampaignCheckpoint(path, identity="bbbb0002").load_report()
        assert report.skipped_lines == [1]
        assert report.identity is None
        assert len(report.entries) == 4

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=2000))
    def test_any_truncation_is_prefix_consistent(self, cut):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.ckpt"
            checkpoint = write_checkpoint(path)
            full = list(checkpoint.load().items())
            data = path.read_bytes()
            path.write_bytes(data[:min(cut, len(data))])
            loaded = list(CampaignCheckpoint(path, identity="cafe1234")
                          .load().items())
        # Never raises, and yields exactly a prefix of what was written.
        assert loaded == full[:len(loaded)]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_single_bit_flip_loses_at_most_the_hit_lines(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.ckpt"
            checkpoint = write_checkpoint(path)
            full = checkpoint.load()
            raw = bytearray(path.read_bytes())
            position = data.draw(st.integers(min_value=0,
                                             max_value=len(raw) - 1))
            bit = data.draw(st.integers(min_value=0, max_value=7))
            raw[position] ^= 1 << bit
            path.write_bytes(bytes(raw))
            reader = CampaignCheckpoint(path)  # identity check off: a flip
            loaded = reader.load()  # inside the header must not raise
        # Whatever survives is exactly what was written (CRC catches any
        # altered payload), and a single flip kills at most two lines
        # (flipping a byte into/out of a newline splits or joins lines).
        assert all(full[key] == entry for key, entry in loaded.items())
        assert len(loaded) >= len(full) - 2


class TestTornTailOnResume:
    """A coordinator killed mid-append leaves a torn last line; the
    next append must not fuse its entry with that fragment."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_runs_recorded_after_a_torn_tail_all_load(self, data):
        n_entries = data.draw(st.integers(min_value=1, max_value=5))
        new_keys = [("OP_V", "A9", "A9-P8", 8), ("OP_V", "A9", "A9-P9", 9)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.ckpt"
            write_checkpoint(path, n_entries=n_entries, fsync=False)
            written = path.read_bytes()
            last_line = written.rindex(b"\n", 0, len(written) - 1) + 1
            # Inside the last line: part of it stays, part of its
            # payload goes.
            cut = data.draw(st.integers(min_value=last_line + 1,
                                        max_value=len(written) - 2))
            path.write_bytes(written[:cut])
            torn = CampaignCheckpoint(path, identity="cafe1234") \
                .load_report()
            resumed = CampaignCheckpoint(path, identity="cafe1234",
                                         fsync=False)
            for key in new_keys:
                resumed.record_success(key, "{}")
            report = CampaignCheckpoint(path, identity="cafe1234") \
                .load_report()
        # Header + n entries: the fragment is line n + 1, before and
        # after the appends, and it is the only line skipped.
        assert torn.skipped_lines == [n_entries + 1]
        assert report.skipped_lines == [n_entries + 1]
        assert list(report.entries) == list(torn.entries) + new_keys
        assert len(torn.entries) == n_entries - 1


def write_framed(path, payloads):
    """A checkpoint whose lines are ``payloads``, each correctly framed."""
    path.write_bytes(b"".join(frame_line(payload.encode()) + b"\n"
                              for payload in payloads))


#: A well-formed entry, for files whose other lines are hostile.
GOOD_ENTRY = json.dumps({"key": ["OP_V", "A9", "A9-P1", 0], "status": "ok",
                         "trace": "{}"})

#: Nesting far past the recursion limit, in an otherwise valid object.
DEEP = '{"key": ' + "[" * 100_000 + "]" * 100_000 + "}"


class TestFramedLinesDecodeOrSkip:
    """A correctly framed line is decoded or skipped, never raised on.

    The CRC only proves the bytes are the ones written; what a foreign
    or buggy writer framed still goes through the one JSON-object
    decode and typed field checks.
    """

    @pytest.mark.parametrize("lines, skipped", [
        (['{"version": 1e400}', GOOD_ENTRY], [1]),
        ([GOOD_ENTRY, '{"key": ["OP_V", "A9", "A9-P2", 1e400], '
                      '"status": "ok", "trace": "{}"}'], [2]),
        ([GOOD_ENTRY, '{"key": ["OP_V", "A9", "A9-P2", 0], '
                      '"status": "failed", "error": "x", '
                      '"attempts": 1e400}'], [2]),
        ([DEEP, GOOD_ENTRY], [1]),
        ([GOOD_ENTRY, DEEP], [2]),
    ], ids=["header-version-overflow", "key-overflow", "attempts-overflow",
            "deep-line-1", "deep-later-line"])
    def test_hostile_framed_line_is_skipped(self, tmp_path, lines, skipped):
        path = tmp_path / "c.ckpt"
        write_framed(path, lines)
        report = CampaignCheckpoint(path, identity="cafe1234").load_report()
        assert report.skipped_lines == skipped
        assert list(report.entries) == [("OP_V", "A9", "A9-P1", 0)]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_arbitrary_json_fields_give_entries_or_skips(self, data):
        # Infinities (what ``1e400`` decodes to) get a branch of their
        # own so that every run meets them; keys keep their four-element
        # shape often enough to reach the per-element checks.
        json_values = st.sampled_from([float("inf"), -float("inf")]) \
            | st.recursive(
                st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=8),
                lambda children: st.lists(children, max_size=4)
                | st.dictionaries(st.text(max_size=6), children,
                                  max_size=4),
                max_leaves=12)
        keys = json_values | st.lists(json_values, min_size=4, max_size=4)

        def mutate(record):
            """Replace a random subset of fields with arbitrary JSON."""
            for name in list(record):
                if data.draw(st.booleans()):
                    record[name] = data.draw(
                        keys if name == "key" else json_values)
            return json.dumps(record)

        header = {"version": 1, "identity": "cafe1234"}
        entries = [{"key": ["OP_V", "A9", f"A9-P{index}", index],
                    "status": status, "trace": "{}", "error": "boom",
                    "attempts": 2}
                   for index, status in enumerate(["ok", "failed", "ok"])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.ckpt"
            write_framed(path, [mutate(header)]
                         + [mutate(entry) for entry in entries])
            try:
                report = CampaignCheckpoint(
                    path, identity="cafe1234").load_report()
            except CheckpointMismatchError:
                return
        # Every line was read; each one is a header, an entry or a skip
        # (mutated keys may collide, so entries can be fewer).
        assert report.lines_total == 4
        assert len(report.entries) + report.lines_skipped <= 4
        for key, entry in report.entries.items():
            assert key == entry.key
            assert [type(part) for part in key] == [str, str, str, int]
            assert entry.status in ("ok", "failed")
            assert entry.trace_jsonl is None \
                or isinstance(entry.trace_jsonl, str)
            assert isinstance(entry.error, (str, type(None)))
            assert type(entry.attempts) is int
