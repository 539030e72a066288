"""Tests of the traced run's spans: nesting, self time, wrapper installation."""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import skewbisub  # noqa: E402
import skewbisub.cli  # noqa: E402
import tracing  # noqa: E402


def test_spans_nest_and_self_times_are_non_negative():
    tracer = tracing.Tracer()

    def leaf(x):
        return sum(range(x))

    traced_leaf = tracer.wrap("leaf", leaf)

    def parent(x):
        return traced_leaf(x) + traced_leaf(2 * x)

    traced_parent = tracer.wrap("parent", parent)
    tracer.op = 0
    assert traced_parent(1000) == leaf(1000) + leaf(2000)

    names = [span[0] for span in tracer.spans]
    assert names == ["parent", "leaf", "leaf"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    assert tracer.nesting_errors() == []
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    children = sum(end - start for _, start, end, _, _, _ in tracer.spans[1:])
    parent_span = tracer.spans[0]
    assert children <= parent_span[2] - parent_span[1]
    assert own[0] == parent_span[2] - parent_span[1] - children


def test_nesting_errors_report_a_child_outside_its_parent():
    tracer = tracing.Tracer()
    tracer.spans = [["parent", 10, 20, -1, 0, None], ["child", 12, 25, 0, 0, None]]
    errors = tracer.nesting_errors()
    assert any("leaves its parent" in e for e in errors)
    assert any("negative self time" in e for e in errors)


def test_patched_restores_every_original():
    layers = tracing.OP_LAYERS + tracing.SETUP_LAYERS
    before = {
        (module, cls, attr): vars(skewbisub.functions.__dict__[cls]).get(attr)
        if cls
        else getattr(sys.modules[module], attr)
        for module, cls, attr, _, _ in layers
    }
    with tracing.patched(tracing.Tracer(), layers):
        assert "evaluate" in vars(skewbisub.functions.SumFunction)
    after = {
        (module, cls, attr): vars(skewbisub.functions.__dict__[cls]).get(attr)
        if cls
        else getattr(sys.modules[module], attr)
        for module, cls, attr, _, _ in layers
    }
    assert before == after
    assert "evaluate" not in vars(skewbisub.functions.SumFunction)


def test_traced_check_counts_pairs_and_evaluations(tmp_path, capsys):
    values = {u: 10 if u == "++" else 0 for u in ("--", "-0", "-+", "0-", "00", "0+", "+-", "+0", "++")}
    path = tmp_path / "corner.json"
    path.write_text(json.dumps({"format": "table", "n": 2, "alpha": "1", "values": values}))
    tracer = tracing.Tracer()
    with tracing.patched(tracer, tracing.OP_LAYERS):
        tracer.op = 0
        assert skewbisub.cli.run(["check", str(path)]) == 1
        tracer.op = -1
    capsys.readouterr()
    assert tracer.nesting_errors() == []
    metrics = tracing.layer_metrics(tracer, ops=1, setups=1)
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
    assert metrics["functions.check.calls"] == 1
    # witness ('0+', '+0'): a is 6th and b 8th in lex order, so 5 * 9 + 8 pairs
    assert metrics["functions.check.pairs"] == 5 * 9 + 8
    assert metrics["functions.evaluate.table.calls"] == 9
    assert metrics["cli.run.s"] >= 0 and metrics["functions.check.s"] > 0
