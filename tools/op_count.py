"""Bytecode instructions per benchmark op: a cost that host noise does not move.

    python3 tools/op_count.py --workload quartic-lines --seed 1 [--root DIR]

Runs the in-process op of ``bench/workloads.py`` (parse, ``analyze`` and the
JSON serializer) on each case of one workload's ``bench/families.py`` seed
pool, and counts the bytecode instructions each op runs with ``sys.settrace``
and ``f_trace_opcodes``.  ``--root`` names the checkout whose ``src`` and
``bench`` are imported (default: the one holding this script), so one copy of
the script counts a parent and a change alike, one checkout per process: a
count of a second checkout in the same process raises.  One untraced pass over the
cases comes first, as the benchmark warms up before it times.  Prints one JSON
line with the count's p50, p90 (``statistics.quantiles``, as ``bench/run.py``
reads latencies) and mean per op.

A count repeats exactly, in one process or across processes, but it sees only
Python bytecode: big-integer arithmetic, builtins such as ``sum`` and ``zip``
and allocation are C-level and uncounted.  So a count backs a wall-time claim;
it does not replace one.  paper-cli, one child process per op, is not covered.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sextic-wide", "quartic-lines")


def count_ops(root: Path, workload: str, seed: int, limit: int | None = None) -> list[int]:
    """Instructions run by each op on the first ``limit`` cases of the pool (all by default)."""
    sys.path[:0] = [p for p in (str(root / "src"), str(root / "bench")) if p not in sys.path]
    import cy_smoother
    import families
    from cy_smoother.catalog import load_catalog
    from cy_smoother.schemas import dump_json, parse_degeneration, report_to_dict
    from cy_smoother.smoothing import analyze
    from families import GENERATORS

    # a module imported earlier in this process stays cached, whatever root says
    for module, tree in ((cy_smoother, root / "src"), (families, root / "bench")):
        if not Path(module.__file__).resolve().is_relative_to(tree.resolve()):
            raise RuntimeError("%s is already imported from %s, not from %s: count one "
                               "checkout per process" % (module.__name__, module.__file__, tree))
    catalog = load_catalog()
    cases = GENERATORS[workload](seed)[:limit]

    def op(case):
        dump_json(report_to_dict(analyze(parse_degeneration(case.doc, catalog))))

    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def tracer(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    for case in cases:
        op(case)
    counts, previous = [], sys.gettrace()
    for case in cases:
        count = 0
        sys.settrace(tracer)
        try:
            op(case)
        finally:
            sys.settrace(previous)
        counts.append(count)
    return counts


def summary(counts: list[int]) -> dict:
    return {
        "ops": len(counts),
        "p50": statistics.median(counts),
        "p90": statistics.quantiles(counts, n=10)[-1],
        "mean": statistics.fmean(counts),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to count")
    args = parser.parse_args(argv)
    counts = count_ops(args.root.resolve(), args.workload, args.seed)
    print(json.dumps(dict(root=str(args.root), workload=args.workload, seed=args.seed,
                          **summary(counts))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
