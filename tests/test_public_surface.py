"""The package's public surface: every function the benchmark tracer wraps
still exists, and ``exact_lattice`` takes and returns plain values.

``bench/spans.py``'s ``Tracer.install`` looks each TRACED function up with
``getattr``, so a deleted or renamed one would break only traced benchmark
runs.  The table is read from the source, without importing the harness.
"""

import ast
import importlib
import inspect
from pathlib import Path

from cy_smoother import exact_lattice

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


def calls(vec):
    """One call of each public exact_lattice function, every vector and list of
    vectors built by vec; a new function must be added here."""
    rows = vec([vec([2, 4, 1]), vec([6, 8, 3])])
    columns = vec([vec([2, 6]), vec([4, 8]), vec([1, 3])])
    return {
        # echelon_rows works in place, so its row lists stay lists
        "echelon_rows": ([vec([2, 4]), vec([6, 8])], [vec([1, 0]), vec([0, 1])]),
        "fiber_product": (columns, columns),
        "hermite_row_form": (rows,),
        "intersect_column_lattices": (columns, columns),
        "kernel_basis": (columns,),
        "quotient": (vec([vec([2, 3, 5])]), 3),
        "rank": (rows,),
        "sign_normalize_column": (vec([0, -1, 2]),),
        "smith_normal_form": (rows, 3),
        "solve_exact": (columns, vec([1, 3])),
    }


def plain(value) -> bool:
    """True iff the value is an int or None, or a list or tuple of plain values."""
    if value is None or type(value) is int:
        return True
    return type(value) in (list, tuple) and all(plain(item) for item in value)


def test_plain_values_in_plain_values_out():
    # exact_lattice has no matrix type: it takes lists or tuples of vectors and
    # returns lists, tuples and ints, which every caller reads as they are
    public = {
        name for name, f in inspect.getmembers(exact_lattice, inspect.isfunction)
        if not name.startswith("_") and f.__module__ == exact_lattice.__name__
    }
    assert public == set(calls(list))
    assert plain([1, (None, [2])]) and not plain([1, (True,)]) and not plain({"k": 1})
    results = [{name: getattr(exact_lattice, name)(*args) for name, args in calls(vec).items()}
               for vec in (list, tuple)]
    for result in results:
        assert [name for name, value in result.items() if not plain(value)] == []
    assert results[0] == results[1]
