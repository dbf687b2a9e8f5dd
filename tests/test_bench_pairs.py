import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import summarize  # noqa: E402


def _runs(metric, parent, change):
    return [
        {"side": side, "pair": p, "metrics": {metric: v}}
        for side, vals in (("parent", parent), ("change", change))
        for p, v in enumerate(vals)
    ]


def test_wins_ties_and_gain_rule():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [110.0, 111, 109, 110, 112, 108, 110, 111, 109, 100]  # last pair ties
    s = summarize(_runs("throughput_ops_s", parent, change), {"throughput_ops_s": "higher"})
    assert s["throughput_ops_s"]["change_wins"] == "9 of 10"
    assert s["throughput_ops_s"]["gain_rule_met"]
    # the same numbers read as a time: the change lost every pair it did not tie
    s = summarize(_runs("op_ms", parent, change), {"op_ms": "lower"})
    assert s["op_ms"]["change_wins"] == "0 of 10"
    assert not s["op_ms"]["gain_rule_met"]


def test_gain_inside_parent_spread_is_not_met():
    parent = [90.0, 110, 95, 105, 100, 92, 108, 97, 103, 100]
    change = [p + 1 for p in parent]
    s = summarize(_runs("throughput_ops_s", parent, change), {"throughput_ops_s": "higher"})
    assert s["throughput_ops_s"]["change_wins"] == "10 of 10"
    assert not s["throughput_ops_s"]["gain_rule_met"]
