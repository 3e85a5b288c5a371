"""Tests for the resilience primitives: fault injector, errors, retry,
checkpoint."""

import json

import pytest

from repro.resilience.checkpoint import CampaignCheckpoint
from repro.resilience.errors import (
    MalformedRecordError,
    OutOfOrderRecordError,
    TraceDecodeError,
    TraceParseError,
)
from repro.resilience.ingest import ParseReport
from repro.resilience.retry import RetryPolicy, execute_with_retry
from repro.traces.parser import parse_trace
from tests.chaos.faults import FAULT_KINDS, FaultInjector


@pytest.fixture
def trace_text(s1e3_trace) -> str:
    return s1e3_trace.to_jsonl()


class TestFaultInjector:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultInjector(rate=1.5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultInjector(kinds=("truncate", "explode"))

    def test_deterministic(self, trace_text):
        first = FaultInjector(seed=7, rate=0.2).corrupt(trace_text)
        second = FaultInjector(seed=7, rate=0.2).corrupt(trace_text)
        assert first[0] == second[0]
        assert first[1].events == second[1].events

    def test_different_seeds_differ(self, trace_text):
        first, _ = FaultInjector(seed=1, rate=0.3).corrupt(trace_text)
        second, _ = FaultInjector(seed=2, rate=0.3).corrupt(trace_text)
        assert first != second

    def test_zero_rate_is_identity(self, trace_text):
        corrupted, report = FaultInjector(seed=0, rate=0.0).corrupt(trace_text)
        assert corrupted == trace_text
        assert report.n_faults == 0

    def test_kind_restriction(self, trace_text):
        _, report = FaultInjector(seed=2, rate=1.0,
                                  kinds=("drop",)).corrupt(trace_text)
        assert report.n_faults > 0
        assert set(report.counts()) == {"drop"}

    def test_header_never_targeted(self, trace_text):
        corrupted, report = FaultInjector(seed=5, rate=1.0).corrupt(trace_text)
        assert report.n_faults > 0
        first_line = corrupted.splitlines()[0]
        assert json.loads(first_line)["meta"]["operator"] == "OP_T"

    def test_truncate_produces_invalid_json(self, trace_text):
        corrupted, report = FaultInjector(seed=3).inject_one(
            trace_text, "truncate")
        assert report.counts() == {"truncate": 1}
        bad_line = corrupted.splitlines()[report.events[0].line_number - 1]
        with pytest.raises(json.JSONDecodeError):
            json.loads(bad_line)

    def test_drop_removes_a_line(self, trace_text):
        corrupted, report = FaultInjector(seed=3).inject_one(trace_text, "drop")
        assert report.counts() == {"drop": 1}
        assert len(corrupted.splitlines()) == len(trace_text.splitlines()) - 1

    def test_duplicate_adds_a_line(self, trace_text):
        corrupted, report = FaultInjector(seed=3).inject_one(
            trace_text, "duplicate")
        assert len(corrupted.splitlines()) == len(trace_text.splitlines()) + 1

    def test_reorder_rewinds_timestamp(self, trace_text):
        corrupted, report = FaultInjector(seed=3).inject_one(
            trace_text, "reorder")
        line = corrupted.splitlines()[report.events[0].line_number - 1]
        assert json.loads(line)["t"] < 0.0

    def test_explicit_line_number_target(self, trace_text):
        corrupted, report = FaultInjector(seed=0).inject_one(
            trace_text, "drop", line_number=3)
        assert report.events[0].line_number == 3

    def test_report_summary_mentions_kinds(self, trace_text):
        _, report = FaultInjector(seed=5, rate=1.0).corrupt(trace_text)
        assert "injected" in report.summary()


class TestErrorTaxonomy:
    def test_all_errors_are_trace_parse_errors(self):
        assert issubclass(TraceDecodeError, TraceParseError)
        assert issubclass(OutOfOrderRecordError, ValueError)

    def test_line_number_in_message(self):
        error = MalformedRecordError("bad payload", line_number=12,
                                     record_kind="sys_info")
        assert "line 12" in str(error)
        assert error.record_kind == "sys_info"

    def test_parse_report_tallies(self):
        report = ParseReport()
        report.record_error(
            TraceDecodeError("invalid JSON", line_number=2,
                             record_kind="json"), raw="{oops")
        report.record_success()
        assert report.skipped_records == 1
        assert report.parsed_records == 1
        assert report.errors_by_kind == {"json": 1}
        assert not report.ok
        assert "skipped 1" in report.summary()


class TestRetry:
    def test_success_first_attempt(self):
        outcome = execute_with_retry(lambda: 42, RetryPolicy())
        assert outcome.succeeded and outcome.value == 42
        assert outcome.attempts == 1

    def test_transient_failure_recovers(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("flaky")
            return "ok"

        policy = RetryPolicy(max_retries=3, backoff_base_s=0.0)
        outcome = execute_with_retry(flaky, policy, key=("k",))
        assert outcome.succeeded and outcome.value == "ok"
        assert outcome.attempts == 3

    def test_permanent_failure_reported_not_raised(self):
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.0)
        outcome = execute_with_retry(
            lambda: (_ for _ in ()).throw(RuntimeError("boom")), policy)
        assert not outcome.succeeded
        assert outcome.attempts == 3
        assert isinstance(outcome.error, RuntimeError)

    def test_keyboard_interrupt_propagates(self):
        def interrupt():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            execute_with_retry(interrupt, RetryPolicy(max_retries=5))

    def test_backoff_deterministic_and_growing(self):
        policy = RetryPolicy(max_retries=3, backoff_base_s=0.5, seed=9)
        schedule = policy.schedule(("OP_T", "A1", "A1-P1", 0))
        assert schedule == policy.schedule(("OP_T", "A1", "A1-P1", 0))
        assert schedule[1] > schedule[0]
        assert all(delay >= 0.5 for delay in schedule)

    def test_backoff_varies_by_key(self):
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.5, seed=9)
        assert policy.backoff_s(("a",), 0) != policy.backoff_s(("b",), 0)

    def test_sleep_receives_backoffs(self):
        slept = []
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.1)
        outcome = execute_with_retry(
            lambda: (_ for _ in ()).throw(RuntimeError("boom")),
            policy, key=("k",), sleep=slept.append)
        assert slept == outcome.backoffs_s
        assert len(slept) == 2

    def test_backoff_cap_bounds_every_delay(self):
        # Uncapped, 2**9 * 0.05 would be ~25s+; the cap pins the tail.
        policy = RetryPolicy(max_retries=10, backoff_base_s=0.05,
                             backoff_factor=2.0, seed=3,
                             backoff_max_s=2.0)
        schedule = policy.schedule(("verb",))
        assert max(schedule) == 2.0
        assert all(delay <= 2.0 for delay in schedule)
        # Early delays below the cap are untouched (still jittered).
        uncapped = RetryPolicy(max_retries=10, backoff_base_s=0.05,
                               backoff_factor=2.0, seed=3)
        assert schedule[0] == uncapped.schedule(("verb",))[0]

    def test_backoff_cap_default_none_preserves_legacy_schedule(self):
        legacy = RetryPolicy(max_retries=6, backoff_base_s=0.5, seed=9)
        explicit = RetryPolicy(max_retries=6, backoff_base_s=0.5, seed=9,
                               backoff_max_s=None)
        assert legacy.backoff_max_s is None
        assert legacy.schedule(("k",)) == explicit.schedule(("k",))

    def test_backoff_cap_rejects_negative(self):
        with pytest.raises(ValueError, match="backoff_max_s"):
            RetryPolicy(backoff_max_s=-1.0)


class TestCheckpoint:
    KEY = ("OP_T", "A1", "A1-P1", 0)

    def test_round_trip(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "ckpt.jsonl")
        checkpoint.record_success(self.KEY, '{"meta": {}}\n')
        checkpoint.record_failure(("OP_T", "A1", "A1-P1", 1), "boom", 3)
        entries = checkpoint.load()
        assert entries[self.KEY].succeeded
        assert entries[self.KEY].trace_jsonl == '{"meta": {}}\n'
        failed = entries[("OP_T", "A1", "A1-P1", 1)]
        assert not failed.succeeded
        assert failed.attempts == 3

    def test_missing_file_loads_empty(self, tmp_path):
        assert CampaignCheckpoint(tmp_path / "none.jsonl").load() == {}

    def test_truncated_tail_ignored(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        checkpoint = CampaignCheckpoint(path)
        checkpoint.record_success(self.KEY, "trace")
        with path.open("a") as handle:
            handle.write('{"key": ["OP_T", "A1", "A1-P2", 0], "sta')
        entries = checkpoint.load()
        assert list(entries) == [self.KEY]

    def test_later_entry_wins(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "ckpt.jsonl")
        checkpoint.record_failure(self.KEY, "boom", 1)
        checkpoint.record_success(self.KEY, "trace")
        assert checkpoint.load()[self.KEY].succeeded


class TestRecoverSmoke:
    def test_corrupt_then_recover_never_raises(self, trace_text):
        corrupted, _ = FaultInjector(seed=11, rate=1.0).corrupt(trace_text)
        parsed = parse_trace(corrupted, errors="recover")
        assert parsed.report.total_lines == len(corrupted.splitlines())
