"""Lines of ``src/cy_smoother`` that the benchmark traffic never runs.

    python3 tools/traffic_coverage.py        (or: make traffic-coverage)

Runs, under a ``sys.settrace`` line tracer, the report loop of
``tools/report_hash.py`` (its 2700 reports: ``bench/families.py`` seeds 1-5,
parse, ``analyze`` and the JSON serializer) and then the commands of
``tests/golden/commands.json`` through ``cli.main`` in-process, checking each
command's exit code.  It prints, for each module, how many of its executable
lines never ran and which.  The tracer is installed before ``report_hash``
imports the package, so module-level lines count.  Only the standard library
is used; a run takes about four times as long as ``make report-hash``.  A line
listed here is not necessarily dead: most of them are input checks, which
valid traffic is not supposed to reach.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cy_smoother"
GOLDEN = ROOT / "tests" / "golden"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that hold bytecode, over every code object of the file.

    A module's code starts with an instruction on line 0, which is left out.
    """
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


@contextlib.contextmanager
def recording(files):
    """Record into the yielded {filename: set of lines} every line run in files."""
    hits = {str(f): set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield hits
    finally:
        sys.settrace(previous)


def ranges(lines) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    spans = []
    for n in sorted(lines):
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in spans)


def _traffic() -> tuple[int, int]:
    """Run the bench reports and the golden commands; return how many of each."""
    sys.path.insert(0, str(ROOT / "tools"))
    from report_hash import reports  # puts src/ and bench/ on the path

    from cy_smoother.cli import CATALOG_ENV, main

    count = sum(1 for _ in reports())
    os.environ.pop(CATALOG_ENV, None)
    examples = str(PACKAGE / "data" / "examples")
    commands = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))
    for entry in commands:
        argv = [a.replace("EXAMPLES", examples, 1) if a.startswith("EXAMPLES/") else a
                for a in entry["argv"]]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != entry["exit"]:
            raise SystemExit("%s exited %d, expected %d" % (" ".join(argv), code, entry["exit"]))
    return count, len(commands)


def main() -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    with recording(modules) as hits:
        reports, commands = _traffic()
    print("never-run lines of src/cy_smoother after %d reports and %d commands"
          % (reports, commands))
    for path in modules:
        missing = executable_lines(path) - hits[str(path)]
        print(("%-20s %3d  %s" % (path.stem, len(missing), ranges(missing))).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
