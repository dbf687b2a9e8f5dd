"""The package's public surface: every function the benchmark tracer wraps
still exists, and ``exact_lattice`` returns plain values.

``bench/spans.py``'s ``Tracer.install`` looks each TRACED function up with
``getattr``, so a deleted or renamed one would break only traced benchmark
runs.  The table is read from the source, without importing the harness.
"""

import ast
import importlib
import inspect
from pathlib import Path

from cy_smoother import exact_lattice
from cy_smoother.exact_lattice import IntMatrix

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


M = IntMatrix.from_rows([[2, 4, 1], [6, 8, 3]])
# one call of each public exact_lattice function; a new one must be added here
CALLS = {
    "echelon_rows": ([[2, 4], [6, 8]], [[1, 0], [0, 1]]),
    "fiber_product": (M, M),
    "hermite_row_form": (M,),
    "intersect_column_lattices": (M, M),
    "kernel_basis": (M,),
    "quotient": (IntMatrix.from_columns([[2, 3, 5]]),),
    "rank": (M,),
    "sign_normalize_column": ((0, -1, 2),),
    "smith_normal_form": (M,),
    "solve_exact": (M, (1, 3)),
}


def int_matrices(value):
    """Every IntMatrix in a value, looking inside lists, tuples and dicts."""
    if isinstance(value, IntMatrix):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from int_matrices(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from int_matrices(item)


def test_int_matrix_in_plain_values_out():
    # IntMatrix is the validated argument type of exact_lattice and nothing
    # else: a result that wraps one makes its reader transpose it back
    public = {
        name for name, f in inspect.getmembers(exact_lattice, inspect.isfunction)
        if not name.startswith("_") and f.__module__ == exact_lattice.__name__
    }
    assert public == set(CALLS)
    assert list(int_matrices([M, (1, {"k": [M]})])) == [M, M]
    wrapped = [name for name, args in CALLS.items()
               if list(int_matrices(getattr(exact_lattice, name)(*args)))]
    assert wrapped == []
