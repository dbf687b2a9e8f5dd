"""Every name imported in ``src/`` and ``tests/`` is used, and the package
top level is only its version and its submodules.

A name counts as used when it is read anywhere in its module or listed in
the module's ``__all__``.  An import line marked ``# noqa: F401`` is a
deliberate re-export and is left out.  Names are imported from the module
that defines them, so ``cy_smoother/__init__.py`` imports nothing and a
module loads only what it needs.  Only the standard library's ``ast`` is
needed, so the checks run without a linter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
PACKAGE = ROOT / "src" / "cy_smoother"
TOP_LEVEL = {"__version__"} | {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_reference_imports_nothing_from_the_package():
    # the tests' oracle must share no code with what it checks
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] in ("cy_smoother", "")]


def top_level_imports(source: str, in_package: bool = False) -> list[tuple[int, str]]:
    """(line, name) of each name read from the package top level that is not in TOP_LEVEL.

    That is ``from cy_smoother import name`` (``from . import name`` inside
    the package) and ``cy_smoother.name``; dunder attributes are allowed.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 0 and node.module == "cy_smoother")
            or (in_package and node.level == 1 and node.module is None)
        ):
            found += [(a.lineno, a.name) for a in node.names if a.name not in TOP_LEVEL]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "cy_smoother" and node.attr not in TOP_LEVEL
              and not node.attr.startswith("__")):
            found.append((node.lineno, node.attr))
    return found


def test_finds_a_top_level_import():
    source = ("from cy_smoother import smoothing, analyze\nfrom . import __version__, quotient\n"
              "import cy_smoother\ncy_smoother.K3Model, cy_smoother.cli, cy_smoother.__file__\n")
    assert top_level_imports(source) == [(1, "analyze"), (4, "K3Model")]
    assert top_level_imports(source, in_package=True) == [
        (1, "analyze"), (2, "quotient"), (4, "K3Model")]


@pytest.mark.parametrize(
    "path", SOURCES + sorted((ROOT / "tools").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_names_from_the_package_top_level(path):
    in_package = path.is_relative_to(PACKAGE)
    assert top_level_imports(path.read_text(encoding="utf-8"), in_package) == []


def test_package_init_holds_only_its_docstring_and_version():
    # a re-export layer here would load every module on any import of one
    doc, version = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert isinstance(doc, ast.Expr) and isinstance(doc.value.value, str)
    assert [t.id for t in version.targets] == ["__version__"]
    assert isinstance(version.value.value, str)


def test_a_module_loads_only_what_it_imports():
    # surface imports nothing from the package; an __init__ that imported it would load all
    code = "import sys, cy_smoother.surface; print(*[m for m in sys.modules if 'cy_smoother' in m])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60, check=True)
    assert sorted(proc.stdout.split()) == ["cy_smoother", "cy_smoother.surface"]
