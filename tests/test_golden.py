"""Byte-identity of every `make golden` command against recorded output.

tests/golden/commands.json lists each command's arguments (``EXAMPLES/``
stands for the bundled examples directory), its exit code and the file
holding its exact stdout.  Each command is replayed through ``cli.main``.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from cy_smoother.cli import CATALOG_ENV, main

GOLDEN = Path(__file__).parent / "golden"
EXAMPLES = Path(resources.files("cy_smoother").joinpath("data/examples"))
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("entry", COMMANDS, ids=[c["stdout"][:-4] for c in COMMANDS])
def test_golden_command(entry, capsys, monkeypatch):
    monkeypatch.delenv(CATALOG_ENV, raising=False)
    argv = [str(EXAMPLES / a[len("EXAMPLES/"):]) if a.startswith("EXAMPLES/") else a
            for a in entry["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert out.encode() == (GOLDEN / entry["stdout"]).read_bytes()


def test_commands_are_the_makefile_golden_recipe():
    # `make golden` and this replay must run the same commands in the same order
    makefile = (Path(__file__).resolve().parent.parent / "Makefile").read_text()
    recipe = []
    for line in makefile.split("\ngolden:\n", 1)[1].splitlines():
        if not line.startswith("\t"):
            break
        recipe.append(line.split())
    want = [["$(CLI)"] + ["$(EXAMPLES)/" + a[len("EXAMPLES/"):] if a.startswith("EXAMPLES/")
                          else a for a in c["argv"]] for c in COMMANDS]
    assert len(recipe) == 13
    assert recipe == want
