"""The package's public surface: every function the benchmark tracer wraps
still exists.

``bench/spans.py``'s ``Tracer.install`` looks each TRACED function up with
``getattr``, so a deleted or renamed one would break only traced benchmark
runs.  The table is read from the source, without importing the harness.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_functions() -> list[tuple[str, str]]:
    """The (module, function) pairs of the TRACED table in bench/spans.py."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(module, func) for module, func, _ in ast.literal_eval(node.value)]
    raise AssertionError("no TRACED table in %s" % SPANS)


def test_traced_functions_exist():
    traced = traced_functions()
    assert ("exact_lattice", "quotient") in traced
    missing = [
        (module, func)
        for module, func in traced
        if not callable(getattr(importlib.import_module("cy_smoother." + module), func, None))
    ]
    assert missing == []
