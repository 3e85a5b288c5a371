"""Tracing spans: hierarchy, error handling, integrity, JSONL export."""

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    parse_spans_jsonl,
    verify_span_tree,
)
from tests.test_obs_metrics import FakeClock


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def tracer(clock) -> Tracer:
    return Tracer(clock=clock)


class TestSpanHierarchy:
    def test_single_span_duration(self, tracer, clock):
        with tracer.span("campaign") as span:
            clock.advance(2.0)
        assert span.closed
        assert span.duration_s == pytest.approx(2.0)
        assert span.parent_id is None
        assert span.status == "ok"

    def test_children_nest_under_parent(self, tracer, clock):
        with tracer.span("campaign") as campaign:
            with tracer.span("run") as run:
                with tracer.span("simulate") as simulate:
                    clock.advance(1.0)
                with tracer.span("analyze") as analyze:
                    clock.advance(0.5)
        assert run.parent_id == campaign.span_id
        assert simulate.parent_id == run.span_id
        assert analyze.parent_id == run.span_id
        assert tracer.children_of(run) == [simulate, analyze]
        assert tracer.roots() == [campaign]

    def test_span_ids_are_sequential_and_deterministic(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [span.span_id for span in tracer.spans()] == [2, 1, 3]

    def test_attributes_recorded(self, tracer):
        with tracer.span("run", operator="OP_T", run_index=3) as span:
            span.set_attribute("outcome", "completed")
        assert span.attributes == {"operator": "OP_T", "run_index": 3,
                                   "outcome": "completed"}

    def test_collection_is_close_order(self, tracer, clock):
        with tracer.span("parent"):
            with tracer.span("child"):
                clock.advance(1.0)
        names = [span.name for span in tracer.spans()]
        assert names == ["child", "parent"]

    def test_current_tracks_stack(self, tracer):
        assert tracer.current is None
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            assert tracer.current is a
        assert tracer.current is None


class TestSpanErrors:
    def test_exception_marks_error_closes_and_propagates(self, tracer,
                                                         clock):
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("run") as span:
                clock.advance(1.0)
                raise RuntimeError("boom")
        assert span.closed
        assert span.status == "error"
        assert span.attributes["error_type"] == "RuntimeError"
        assert span.attributes["error"] == "boom"
        assert span.duration_s == pytest.approx(1.0)

    def test_exception_closes_whole_ancestry(self, tracer, clock):
        """Every open ancestor closes when the exception unwinds."""
        with pytest.raises(ValueError):
            with tracer.span("campaign") as campaign:
                with tracer.span("run") as run:
                    clock.advance(1.0)
                    raise ValueError("bad run")
        assert run.closed and campaign.closed
        assert run.status == "error"
        assert campaign.status == "error"
        assert verify_span_tree(tracer.spans()) == []

    def test_keyboard_interrupt_still_closes_span(self, tracer, clock):
        with pytest.raises(KeyboardInterrupt):
            with tracer.span("campaign") as span:
                clock.advance(5.0)
                raise KeyboardInterrupt()
        assert span.closed
        assert span.status == "error"
        assert span.duration_s == pytest.approx(5.0)

    def test_error_in_child_does_not_poison_siblings(self, tracer, clock):
        with tracer.span("run"):
            with pytest.raises(RuntimeError):
                with tracer.span("simulate"):
                    clock.advance(1.0)
                    raise RuntimeError("fail")
            with tracer.span("analyze") as analyze:
                clock.advance(1.0)
        assert analyze.status == "ok"
        assert verify_span_tree(tracer.spans()) == []


class TestSpanTreeIntegrity:
    def _pipeline_tree(self, tracer, clock) -> None:
        with tracer.span("campaign"):
            for _ in range(3):
                with tracer.span("run"):
                    with tracer.span("simulate"):
                        clock.advance(0.3)
                    with tracer.span("analyze"):
                        clock.advance(0.1)

    def test_healthy_tree_has_no_violations(self, tracer, clock):
        self._pipeline_tree(tracer, clock)
        assert verify_span_tree(tracer.spans()) == []

    def test_every_child_closes_within_its_parent(self, tracer, clock):
        self._pipeline_tree(tracer, clock)
        by_id = {span.span_id: span for span in tracer.spans()}
        children = [span for span in tracer.spans()
                    if span.parent_id is not None]
        assert children
        for child in children:
            parent = by_id[child.parent_id]
            assert parent.start_s <= child.start_s
            assert child.end_s <= parent.end_s

    def test_root_duration_at_least_sum_of_children(self, tracer, clock):
        self._pipeline_tree(tracer, clock)
        root = tracer.roots()[0]
        child_total = sum(span.duration_s
                          for span in tracer.children_of(root))
        assert root.duration_s >= child_total

    def test_detects_sibling_overlap(self):
        from repro.obs import Span

        spans = [
            Span("parent", 1, None, 0.0, 10.0),
            Span("a", 2, 1, 0.0, 6.0),
            Span("b", 3, 1, 5.0, 9.0),  # starts before sibling a ends
        ]
        violations = verify_span_tree(spans)
        assert any("overlaps sibling" in violation
                   for violation in violations)

    def test_detects_child_escaping_parent(self):
        from repro.obs import Span

        spans = [
            Span("parent", 1, None, 0.0, 1.0),
            Span("child", 2, 1, 0.5, 2.0),
        ]
        assert any("escapes parent" in violation
                   for violation in verify_span_tree(spans))

    def test_detects_unclosed_span(self):
        from repro.obs import Span

        assert verify_span_tree([Span("open", 1, None, 0.0)]) \
            == ["open#1: never closed"]


class TestSpanTreeAcrossProcesses:
    """Pool runs carry their worker's pid; the check runs per process."""

    @staticmethod
    def pool_campaign(first_pid, second_pid):
        from repro.obs import Span

        # Two adopted runs that overlap in time, each with a child that
        # names no pid (it inherits its run's), under a coordinator
        # campaign span that closed before the second run did.
        return [
            Span("campaign", 1, None, 0.0, 9.0),
            Span("run", 2, 1, 1.0, 6.0,
                 attributes={"worker_pid": first_pid}),
            Span("simulate", 3, 2, 1.5, 5.0),
            Span("run", 4, 1, 2.0, 9.5,
                 attributes={"worker_pid": second_pid}),
            Span("simulate", 5, 4, 2.5, 9.0),
        ]

    def test_runs_from_distinct_pids_may_overlap(self):
        assert verify_span_tree(self.pool_campaign(101, 102)) == []

    def test_runs_from_one_pid_may_not_overlap(self):
        assert verify_span_tree(self.pool_campaign(101, 101)) \
            == ["run#4 overlaps sibling run#2"]

    def test_child_inherits_its_runs_process_for_containment(self):
        from repro.obs import Span

        spans = self.pool_campaign(101, 102)
        spans[2] = Span("simulate", 3, 2, 1.5, 7.0)  # outlives its run
        assert verify_span_tree(spans) == [
            "simulate#3: escapes parent run#2 ([1.5, 7.0] outside "
            "[1.0, 6.0])"]

    def test_coordinator_siblings_of_worker_runs_are_still_checked(self):
        from repro.obs import Span

        spans = self.pool_campaign(101, 102) + [
            Span("pool_rebuild", 6, 1, 3.0, 4.0),
            Span("run", 7, 1, 3.5, 5.0, attributes={"supervised": True}),
        ]
        assert verify_span_tree(spans) \
            == ["run#7 overlaps sibling pool_rebuild#6"]

    def test_parent_cycle_does_not_hang(self):
        from repro.obs import Span

        spans = [Span("a", 1, 2, 0.0, 1.0), Span("b", 2, 1, 0.0, 0.5)]
        assert verify_span_tree(spans) == [
            "a#1: escapes parent b#2 ([0.0, 1.0] outside [0.0, 0.5])"]


class TestJsonlExport:
    def test_round_trip(self, tracer, clock, tmp_path):
        with tracer.span("campaign", seed=7):
            with tracer.span("run"):
                clock.advance(1.5)
        path = tmp_path / "spans.jsonl"
        tracer.export_jsonl(path)
        spans = parse_spans_jsonl(path.read_text())
        assert [span.name for span in spans] == ["run", "campaign"]
        assert spans[0].duration_s == pytest.approx(1.5)
        assert spans[1].attributes == {"seed": 7}
        assert verify_span_tree(spans) == []

    def test_reset_clears_collector_and_ids(self, tracer):
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.spans() == []
        with tracer.span("b") as span:
            pass
        assert span.span_id == 1


class TestNullTracer:
    def test_disabled_and_inert(self):
        tracer = NullTracer()
        assert not tracer.enabled
        with tracer.span("anything", a=1) as span:
            span.set_attribute("x", 2)
        assert tracer.spans() == []
        assert NULL_TRACER.spans() == []
