"""The content-addressed analysis memo: cache semantics + campaign wiring."""

from __future__ import annotations

import functools
import io
import pickle
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.operators import operator
from repro.campaign.runner import CampaignConfig, CampaignRunner
from repro.core.pipeline import analyze_trace
from repro.obs import instrumented, make_instrumentation
from repro.resilience.framing import frame_line
from repro.resilience.memo import AnalysisMemo, trace_digest
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.records import (
    RrcReleaseRecord,
    RrcSetupCompleteRecord,
    ThroughputSampleRecord,
)
from tests.conftest import nr_cell


def _small_trace(seed: int = 0) -> SignalingTrace:
    trace = SignalingTrace(metadata=TraceMetadata(
        operator="MEMO", area="A1", location=f"P{seed}"))
    trace.append(RrcSetupCompleteRecord(time_s=1.0,
                                        cell=nr_cell(10 + seed).identity))
    trace.append(ThroughputSampleRecord(time_s=2.0, mbps=120.5))
    trace.append(RrcReleaseRecord(time_s=5.0))
    return trace


def _counters(obs) -> dict[str, float]:
    registry = obs.registry
    return {name: registry.counter(f"analysis_memo_{name}_total").total()
            for name in ("hits", "misses", "corrupt")}


class TestMemoStore:
    def test_miss_then_hit_round_trips_the_analysis(self, tmp_path):
        obs = make_instrumentation()
        trace = _small_trace()
        digest = trace_digest(trace.to_jsonl())
        with instrumented(obs):
            memo = AnalysisMemo(tmp_path)
            assert memo.get(digest) is None
            analysis = analyze_trace(trace)
            memo.put(digest, analysis)
            assert memo.get(digest) == analysis
        assert _counters(obs) == {"hits": 1, "misses": 1, "corrupt": 0}

    def test_different_trace_content_is_a_different_key(self, tmp_path):
        obs = make_instrumentation()
        with instrumented(obs):
            memo = AnalysisMemo(tmp_path)
            first = _small_trace(seed=0)
            memo.put(trace_digest(first.to_jsonl()), analyze_trace(first))
            changed = _small_trace(seed=1)
            assert memo.get(trace_digest(changed.to_jsonl())) is None
        assert _counters(obs)["misses"] == 1

    def test_identity_namespaces_do_not_share_entries(self, tmp_path):
        obs = make_instrumentation()
        trace = _small_trace()
        digest = trace_digest(trace.to_jsonl())
        with instrumented(obs):
            AnalysisMemo(tmp_path, identity="aaaa").put(
                digest, analyze_trace(trace))
            assert AnalysisMemo(tmp_path, identity="bbbb").get(digest) is None
            assert AnalysisMemo(tmp_path, identity="aaaa").get(digest) \
                is not None

    def test_entry_is_one_frame_around_the_pickle(self, tmp_path):
        trace = _small_trace()
        digest = trace_digest(trace.to_jsonl())
        analysis = analyze_trace(trace)
        memo = AnalysisMemo(tmp_path)
        memo.put(digest, analysis)
        payload = pickle.dumps(analysis, protocol=pickle.HIGHEST_PROTOCOL)
        assert (memo.directory / f"{digest}.pkl").read_bytes() \
            == b"%08x " % zlib.crc32(payload) + payload

    @pytest.mark.parametrize("corruption", [
        b"not the memo frame at all",
        b"00000000 payload with a wrong crc",
        b"zzzzzzzz unparseable crc field",
        b"0123abc",  # truncated inside the CRC prefix
        # The older layout: magic line, CRC line, pickle.
        b"RMEMO1\n" + f"{zlib.crc32(b'N.'):08x}\n".encode() + b"N.",
        frame_line(pickle.dumps({"not": "an analysis"})),
    ], ids=["unframed", "wrong-crc", "unparseable-crc", "truncated-prefix",
            "rmemo1-entry", "not-an-analysis"])
    def test_corrupt_entry_warns_and_recomputes(self, tmp_path, corruption,
                                                caplog):
        obs = make_instrumentation()
        trace = _small_trace()
        digest = trace_digest(trace.to_jsonl())
        with instrumented(obs):
            memo = AnalysisMemo(tmp_path)
            memo.put(digest, analyze_trace(trace))
            path = memo.directory / f"{digest}.pkl"
            path.write_bytes(corruption)
            with caplog.at_level("WARNING", logger="repro.resilience.memo"):
                assert memo.get(digest) is None
            assert "corrupt" in caplog.text
            assert not path.exists(), "corrupt entry must be evicted"
            # The caller's recompute-and-put heals the entry.
            memo.put(digest, analyze_trace(trace))
            assert memo.get(digest) is not None
        counters = _counters(obs)
        assert counters["corrupt"] == 1
        assert counters["misses"] == 1
        assert counters["hits"] == 1

    def test_truncated_pickle_is_corruption_not_a_crash(self, tmp_path):
        obs = make_instrumentation()
        trace = _small_trace()
        digest = trace_digest(trace.to_jsonl())
        payload = pickle.dumps(analyze_trace(trace))[:10]
        blob = frame_line(payload)  # the CRC holds; the pickle is cut
        with instrumented(obs):
            memo = AnalysisMemo(tmp_path)
            (memo.directory / f"{digest}.pkl").write_bytes(blob)
            assert memo.get(digest) is None
        assert _counters(obs)["corrupt"] == 1


@functools.lru_cache(maxsize=1)
def _stored_entry() -> tuple[str, object, bytes]:
    """A digest, its analysis and the entry file ``put`` writes."""
    trace = _small_trace()
    digest = trace_digest(trace.to_jsonl())
    analysis = analyze_trace(trace)
    with tempfile.TemporaryDirectory() as tmp:
        memo = AnalysisMemo(tmp)
        memo.put(digest, analysis)
        blob = (memo.directory / f"{digest}.pkl").read_bytes()
    return digest, analysis, blob


def _mutated_entries():
    """The stored entry cut, bit-flipped or spliced; arbitrary bytes;
    CRC-valid frames around pickles of values that are not analyses.
    (No CRC-valid frame around arbitrary bytes: unpickling runs code.)"""
    blob = _stored_entry()[2]
    cuts = st.integers(0, len(blob)).map(lambda cut: blob[:cut])
    flips = st.tuples(st.integers(0, len(blob) - 1),
                      st.integers(0, 7)).map(
        lambda hit: blob[:hit[0]] + bytes([blob[hit[0]] ^ 1 << hit[1]])
        + blob[hit[0] + 1:])
    splices = st.tuples(st.integers(0, len(blob)), st.binary(max_size=16)) \
        .map(lambda cut: blob[:cut[0]] + cut[1] + blob[cut[0]:])
    values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=8) | st.binary(max_size=8),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=4), children, max_size=3),
        max_leaves=6)
    return st.one_of(
        st.just(blob), cuts, flips, splices, st.binary(max_size=300),
        values.map(lambda value: frame_line(pickle.dumps(value))))


class TestMemoEntryFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_entry_bytes_hit_or_count_one_corrupt_miss(self, data):
        digest, analysis, _ = _stored_entry()
        blob = data.draw(_mutated_entries())
        obs = make_instrumentation()
        with tempfile.TemporaryDirectory() as tmp, instrumented(obs):
            memo = AnalysisMemo(tmp)
            path = memo.directory / f"{digest}.pkl"
            path.write_bytes(blob)
            got = memo.get(digest)
            evicted = not path.exists()
        counters = _counters(obs)
        if got is not None:
            assert got == analysis
            assert counters == {"hits": 1, "misses": 0, "corrupt": 0}
            assert not evicted
        else:
            assert counters == {"hits": 0, "misses": 1, "corrupt": 1}
            assert evicted


class _ClassNameLog(pickle.Unpickler):
    """Unpickler that records every (module, name) pair it imports."""

    def __init__(self, payload: bytes) -> None:
        super().__init__(io.BytesIO(payload))
        self.names: set[tuple[str, str]] = set()

    def find_class(self, module: str, name: str):
        self.names.add((module, name))
        return super().find_class(module, name)


def test_pickled_analysis_class_names_are_pinned(s1e3_trace):
    """A memo entry is a pickled ``RunAnalysis``, which names each class
    it holds by module and name.  Moving or renaming one of them (or
    leaking a numpy scalar into a field) turns every entry in an
    existing ``--memo-dir`` into a miss."""
    samples = [ThroughputSampleRecord(time_s=t + 0.5, mbps=100.0 + t)
               for t in range(40)]
    trace = SignalingTrace(metadata=s1e3_trace.metadata, records=sorted(
        s1e3_trace.records + samples, key=lambda record: record.time_s))
    analysis = analyze_trace(trace)
    assert analysis.cycles and analysis.performance.cycle_speed_losses
    assert analysis.scell_mods and analysis.transitions
    log = _ClassNameLog(pickle.dumps(analysis,
                                     protocol=pickle.HIGHEST_PROTOCOL))
    assert log.load() == analysis
    assert log.names == {
        ("repro.cells.cell", "CellIdentity"),
        ("repro.cells.cell", "Rat"),
        ("repro.core.cellset", "CellSet"),
        ("repro.core.cellset", "CellSetInterval"),
        ("repro.core.classify", "LoopSubtype"),
        ("repro.core.classify", "OffTransition"),
        ("repro.core.loops", "LoopDetection"),
        ("repro.core.loops", "LoopKind"),
        ("repro.core.metrics", "CycleMetrics"),
        ("repro.core.metrics", "RunPerformance"),
        ("repro.core.pipeline", "RunAnalysis"),
        ("repro.core.pipeline", "ScellModOutcome"),
        ("repro.traces.log", "TraceMetadata"),
    }


def _campaign(tmp_path, name: str, **overrides):
    obs = make_instrumentation()
    settings = dict(
        duration_s=30, locations_per_area=1, a1_locations=1,
        runs_per_location=1, a1_runs_per_location=1, seed=11,
        memo_dir=tmp_path / "memo", checkpoint_path=tmp_path / name)
    settings.update(overrides)
    config = CampaignConfig(**settings)
    result = CampaignRunner([operator("OP_A")], config, obs=obs).run()
    return result, _counters(obs)


class TestCampaignMemo:
    def test_warm_campaign_hits_and_matches_cold_run(self, tmp_path):
        cold, cold_counters = _campaign(tmp_path, "cold.ckpt")
        warm, warm_counters = _campaign(tmp_path, "warm.ckpt")
        assert cold_counters["hits"] == 0
        assert cold_counters["misses"] == len(cold.runs)
        assert warm_counters["hits"] == len(warm.runs)
        assert warm_counters["misses"] == 0
        assert [(run.metadata, run.analysis) for run in warm.runs] == \
            [(run.metadata, run.analysis) for run in cold.runs]
        # Memoized analyses must round-trip through checkpointing
        # byte-identically: memoization skips work, never changes it.
        assert (tmp_path / "warm.ckpt").read_bytes() == \
            (tmp_path / "cold.ckpt").read_bytes()

    def test_resume_restores_from_memo_without_reanalysis(self, tmp_path):
        cold, _ = _campaign(tmp_path, "resume.ckpt")
        resumed, counters = _campaign(tmp_path, "resume.ckpt", resume=True)
        assert counters["hits"] == len(resumed.runs)
        assert counters["misses"] == 0
        assert [(run.metadata, run.analysis) for run in resumed.runs] == \
            [(run.metadata, run.analysis) for run in cold.runs]

    def test_different_campaign_identity_does_not_share_cache(self, tmp_path):
        _campaign(tmp_path, "seed11.ckpt")
        # duration_s participates in the campaign identity, so this
        # campaign must not see the first one's entries.
        _, counters = _campaign(tmp_path, "seed11-d31.ckpt", duration_s=31)
        assert counters["hits"] == 0
        assert counters["misses"] > 0
