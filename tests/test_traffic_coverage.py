"""The line tracer of tools/traffic_coverage.py on a module of known shape."""

import importlib.util
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from traffic_coverage import executable_lines, ranges, recording  # noqa: E402

SOURCE = '''\
def sign(x):
    if x < 0:
        return -1
    if x == 0:
        return 0
    return 1
'''


def test_unreached_branch_is_reported(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("probe", path)
    module = importlib.util.module_from_spec(spec)
    with recording([path]) as hits:
        spec.loader.exec_module(module)
        assert module.sign(5) == 1
    assert executable_lines(path) == set(range(1, 7))
    assert executable_lines(path) - hits[str(path)] == {3, 5}


def test_ranges():
    assert ranges({12, 3, 8, 7, 9}) == "3, 7-9, 12"
    assert ranges(set()) == ""
