"""Alternating parent/change runs of the benchmark, summarized into one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seed N [--seconds S] [--pairs P] [--trace {0,1}] --out BENCH_name.json

Runs ``bench/run.py`` from two checkouts, one run at a time: pair i runs the
parent first when i is even and the change first when i is odd.  Each run
uses the same workload, seed, run length (by default ``run_seconds`` from the
change's BENCHMARK.json) and trace setting.  The output file holds every
run's metrics and, for each metric, each side's median and quartiles, the
number of pairs the change won (ties count for neither side) and whether the
gain rule holds: the change wins at least nine tenths of the pairs and the
medians differ, in the better direction, by more than the parent's
interquartile range.  The benchmark itself is only read, never edited.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    return parser.parse_args(argv)


def _commit(root: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run from the checkout at root: its result line
    and the host-speed probe from its detail line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("bench/run.py failed in %s (exit %d):\n%s"
                         % (root, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(proc.stderr.strip().splitlines()[-1])
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "host.ref_loop_ms": detail["host.ref_loop_ms"],
    }


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric medians, quartiles, pair wins and the gain rule."""
    pairs = sorted({r["pair"] for r in runs})
    by = {(r["side"], r["pair"]): r for r in runs}
    out = {}
    for name in runs[0]["metrics"]:
        sign = -1 if better.get(name, "lower") == "lower" else 1
        vals = {s: [by[s, p]["metrics"][name] for p in pairs] for s in SIDES}
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        parent, change = _spread(vals["parent"]), _spread(vals["change"])
        gain = sign * (change["median"] - parent["median"])
        out[name] = {
            "better": better.get(name, "lower"),
            "parent": parent,
            "change": change,
            "change_wins": "%d of %d" % (wins, len(pairs)),
            "gain_rule_met": wins >= math.ceil(0.9 * len(pairs))
            and gain > parent["q3"] - parent["q1"],
        }
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.pairs < 2:
        raise SystemExit("--pairs must be at least 2, for quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    roots = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_once(roots[side], args.workload, args.seed, seconds, args.trace)
            runs.append({"side": side, "pair": pair, "first": order[0], **run})
            sys.stderr.write("pair %d %s: %s\n" % (pair, side, json.dumps(run["metrics"])))
    report = {
        "command": "python3 bench/run.py --workload %s --seed %d --seconds %g --trace %d"
                   % (args.workload, args.seed, seconds, args.trace),
        "commits": {side: _commit(root) for side, root in roots.items()},
        "host": "%s, Python %s, %s CPUs" % (platform.system(), platform.python_version(),
                                             os.cpu_count()),
        "order": "one run at a time; even pairs run the parent first, odd pairs the change",
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "failed": {s: sum(r["failed"] for r in runs if r["side"] == s) for s in SIDES},
        "attempted": {s: sum(r["attempted"] for r in runs if r["side"] == s) for s in SIDES},
        "summary": summarize(runs, better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, s in report["summary"].items():
        print("%-28s parent %10.4g  change %10.4g  wins %-8s gain rule %s"
              % (name, s["parent"]["median"], s["change"]["median"], s["change_wins"],
                 "met" if s["gain_rule_met"] else "not met"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
