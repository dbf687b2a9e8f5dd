"""tools/op_count.py: the per-op instruction count repeats exactly."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from op_count import ROOT, count_ops, summary  # noqa: E402


def test_two_counts_of_a_slice_are_identical():
    first = count_ops(ROOT, "quartic-lines", 1, limit=3)
    assert len(first) == 3 and min(first) > 1000
    assert count_ops(ROOT, "quartic-lines", 1, limit=3) == first


def test_summary_reads_p90_as_the_benchmark_does():
    # statistics.quantiles' exclusive method, as bench/run.py reads latencies
    assert summary([10, 20, 30, 40]) == {"ops": 4, "p50": 25, "p90": 45, "mean": 25}


def test_a_second_checkout_in_one_process_raises(tmp_path):
    count_ops(ROOT, "quartic-lines", 1, limit=1)
    with pytest.raises(RuntimeError, match="one checkout per process"):
        count_ops(tmp_path, "quartic-lines", 1, limit=1)
