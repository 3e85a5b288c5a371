"""Self time, span wrapping and the per-layer metric derivation."""

from __future__ import annotations

import asyncio
import sys
import types

import numpy as np
import pytest

from perfbench.layers import PER_LAYER, layer_metrics
from perfbench.spans import SpanLog, SpanTable, Target, install, self_times


def _table(spans: list[tuple[int, int, str, float, float]]) -> SpanTable:
    """Spans as ``(id, parent id, name, start, end)``."""
    names = sorted({span[2] for span in spans})
    return SpanTable(
        span_id=np.array([span[0] for span in spans], dtype=np.int64),
        parent=np.array([span[1] for span in spans], dtype=np.int64),
        name=np.array([names.index(span[2]) for span in spans],
                      dtype=np.int32),
        key=np.zeros(len(spans), dtype=np.int32),
        start=np.array([span[3] for span in spans]),
        end=np.array([span[4] for span in spans]),
        names=names)


def test_self_time_subtracts_nested_children():
    table = _table([
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "child", 1.0, 4.0),
        (3, 2, "grandchild", 2.0, 3.0),
        (4, 1, "child", 6.0, 7.5),
    ])
    assert self_times(table).tolist() == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_children_sharing_an_edge_are_not_double_counted():
    table = _table([
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 3.0),
        (3, 1, "b", 3.0, 5.0),
        (4, 1, "c", 5.0, 5.0),
        (5, 1, "d", 0.0, 1.0),
    ])
    assert self_times(table)[0] == pytest.approx(5.0)


def test_overlapping_and_outliving_children_count_once_within_parent():
    # Concurrent children (asyncio tasks) may overlap each other and
    # outlive their parent: only their union inside the parent counts.
    table = _table([
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 1, "b", 2.0, 6.0),
        (4, 1, "c", 8.0, 12.0),
        (5, 0, "other-root", 20.0, 21.0),
    ])
    own = self_times(table)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_spans_out_of_order_and_orphans():
    table = _table([
        (7, 3, "child", 2.0, 3.0),
        (3, 0, "root", 0.0, 4.0),
        (9, 42, "orphan", 1.0, 2.0),
    ])
    assert self_times(table).tolist() == pytest.approx([1.0, 3.0, 1.0])


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    class Model:
        def outer(self, n):
            return sum(self.inner(i) for i in range(n))

        def inner(self, i):
            return i

        @staticmethod
        def helper(value):
            return value * 2

    def run(model, n, key):
        return model.outer(n)

    async def read(value):
        await asyncio.sleep(0)
        return {"stream": value}

    module.Model, module.run, module.read = Model, run, read
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_install_records_parents_keys_and_restores(fake_module):
    name = fake_module.__name__
    log = SpanLog()
    installed = install(log, [
        Target(name, "run", "fake.run",
               before=lambda log, args, kwargs: log.set_key(args[2])),
        Target(name, "Model.outer", "fake.Model.outer"),
        Target(name, "Model.inner", "fake.Model.inner"),
        Target(name, "Model.helper", "fake.Model.helper"),
        Target(name, "read", "fake.read",
               after=lambda log, args, kwargs, result:
               log.set_key(result["stream"])),
    ])
    try:
        assert fake_module.run(fake_module.Model(), 3, "run-1") == 3
        assert fake_module.Model.helper(4) == 8
        assert asyncio.run(fake_module.read("s-9")) == {"stream": "s-9"}
    finally:
        installed.uninstall()
    assert not hasattr(fake_module.run, "__wrapped__")
    assert isinstance(fake_module.Model.__dict__["helper"], staticmethod)

    table = log.table()
    names = [table.names[code] for code in table.name]
    keys = [table.keys[code] for code in table.key]
    assert names.count("fake.Model.inner") == 3
    by_id = dict(zip(table.span_id.tolist(), names))
    parent_of = {names[row]: by_id.get(int(table.parent[row]))
                 for row in range(len(table))}
    assert parent_of["fake.Model.inner"] == "fake.Model.outer"
    assert parent_of["fake.Model.outer"] == "fake.run"
    assert parent_of["fake.run"] is None
    assert keys[names.index("fake.run")] == "run-1"
    assert keys[names.index("fake.read")] == "s-9"


def test_layer_metrics_are_per_pass_and_total_skips_nested_same_name():
    table = _table([
        (1, 0, "campaign.CampaignRunner.run", 0.0, 10.0),
        (2, 1, "core.analyze_trace", 1.0, 3.0),
        (3, 2, "core.analyze_trace", 1.5, 2.5),
        (4, 1, "rrc.simulate_run", 3.0, 9.0),
    ])
    values = layer_metrics([table], passes=2, extras={})
    assert set(values) == {metric.name for metric in PER_LAYER}
    assert values["core.analyze_trace.total_s"] == pytest.approx(1.0)
    assert values["rrc.simulate_run.self_s"] == pytest.approx(3.0)
    assert values["campaign.CampaignRunner.run.self_s"] == pytest.approx(1.0)
    assert values["campaign.CampaignRunner.run.total_s"] == pytest.approx(5.0)
    assert values["serve.read_frame.calls"] == 0.0
