"""The repository benchmark: one command, three workloads.

    python3 bench/run.py --workload {paper-cli,sextic-wide,quartic-lines} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  A second line on stderr gives sample counts and
the host-speed probe.  A traced run also writes its spans as JSON lines to
.bench_build/bench/spans-<workload>.jsonl.

Every op's output is checked by an oracle that does not call the library
(oracles.py); an op that raises, exits non-zero or disagrees counts as
failed.

End-to-end metrics: latency_p50_ms and latency_p90_ms over all timed ops;
throughput_ops_s, ops per second of op time (oracle checks and host probes
excluded); setup_s, the median of three set-ups (a cold import timed in a
fresh interpreter, catalog load, input generation and warm-up; for
paper-cli, one cold CLI process); peak_rss_mb of this process, or of the
largest child for paper-cli.  Per-layer metrics are listed in spans.PER_LAYER with
the end-to-end metric each should move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-cli", "sextic-wide", "quartic-lines")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(run, setup_s: float, peak_rss_mb: float) -> dict:
    lat = run.latencies_ms
    return {
        "latency_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(lat, n=10)[-1], "unit": "ms"},
        "throughput_ops_s": {"value": len(lat) / (sum(lat) / 1e3), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "cy_smoother" / "__init__.py").is_file():
        sys.stderr.write("error: no package source at %s; run from a full checkout\n" % src)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.make(args.workload, ROOT, args.seed)
    setup_s = workload.setup()
    if args.trace:
        run, tracer, metrics = workloads.traced_run(workload, args.seconds)
        tracer.write_jsonl(ROOT / ".bench_build" / "bench" / ("spans-%s.jsonl" % args.workload))
    else:
        run = workloads.timed_run(workload, args.seconds)
        metrics = end_to_end(run, setup_s, workload.peak_rss_mb())
    lat = run.latencies_ms
    p90 = statistics.quantiles(lat, n=10)[-1]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(lat),
        "samples_beyond_p90": sum(x > p90 for x in lat),
        "host.ref_loop_ms": statistics.median(run.probes_ms),
        "first_failure": run.failures[0] if run.failures else None,
    }
    sys.stderr.write(json.dumps(detail) + "\n")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(lat),
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
