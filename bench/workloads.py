"""The benchmark's workloads and the loops that time them.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished and been checked by its oracle.  The
generated workloads run in this process and never start a thread; paper-cli
runs one child process at a time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from families import GENERATORS, Case
from oracles import GOLDEN, check_generated
from spans import INTERPRETER, OP, Tracer, layer_metrics

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
WARMUP_OPS = 10  # untimed ops on the smallest cases, ending each in-process set-up
MIN_OPS = 100  # so that at least 10 samples lie beyond p90
MAX_SPANS = 100_000  # no further traced pass once this many spans are held
PROBE_INTERVAL_S = 0.5
CHILD_TIMEOUT_S = 60

BENCH_DIR = Path(__file__).resolve().parent


def ref_loop_ms() -> float:
    """Time of a fixed pure-Python loop: a probe of host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def _oracle(check, *args) -> list[str]:
    try:
        return check(*args)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return ["malformed output: %s: %s" % (type(exc).__name__, exc)]


def _size(case: Case) -> int:
    """Number of blow-up centers.  Warming up on the smallest cases keeps
    set-up cost the same for every seed."""
    return len(case.sides[0]) + len(case.sides[1])


def _child_env(root: Path) -> dict:
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + old if old else ""))


# Cold import of the modules an in-process op uses, timed in a fresh interpreter.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import cy_smoother.catalog, cy_smoother.schemas, cy_smoother.smoothing; "
    "print(time.perf_counter() - start)"
)


class Generated:
    """In-process op: parse a generated dict, analyze, serialize to JSON."""

    def __init__(self, name: str, root: Path, seed: int):
        self.name = name
        self.root = root
        self.seed = seed
        self.items: list[Case] = []

    def setup(self) -> float:
        """Median of SETUP_REPEATS set-ups: a cold import (timed in a child,
        as a process imports only once), catalog load, generation, warm-up."""
        catalog = importlib.import_module("cy_smoother.catalog")
        self.schemas = importlib.import_module("cy_smoother.schemas")
        self.smoothing = importlib.import_module("cy_smoother.smoothing")
        repeats = []
        for _ in range(SETUP_REPEATS):
            probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=self.root,
                                   env=_child_env(self.root), capture_output=True,
                                   text=True, check=True, timeout=CHILD_TIMEOUT_S)
            start = time.perf_counter()
            self.catalog = catalog.load_catalog()
            self.items = GENERATORS[self.name](self.seed)
            for case in sorted(self.items, key=_size)[:WARMUP_OPS]:
                self.op(case)
            repeats.append(float(probe.stdout) + time.perf_counter() - start)
        return statistics.median(repeats)

    def op(self, case: Case, tracer: Tracer | None = None):
        """(elapsed ns, oracle problems) of one operation."""
        root = tracer.begin(OP) if tracer else None
        start = time.perf_counter_ns()
        try:
            model = self.schemas.parse_degeneration(case.doc, self.catalog)
            report = self.smoothing.analyze(model)
            text = self.schemas.dump_json(self.schemas.report_to_dict(report))
        except Exception as exc:  # a failing op is counted, not fatal
            problems = ["%s: %s" % (type(exc).__name__, exc)]
            text = None
        elapsed = time.perf_counter_ns() - start
        if tracer:
            tracer.end(root)
        if text is None:
            return elapsed, problems
        return elapsed, _oracle(lambda: check_generated(case, json.loads(text)))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class PaperCli:
    """One fresh `python -m cy_smoother.cli` process per golden command."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.env = _child_env(root)
        self.items: list = []

    def setup(self) -> float:
        repeats = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            items = list(GOLDEN)
            random.Random("paper-cli/%d" % self.seed).shuffle(items)
            for argv, _ in items:
                for arg in argv:
                    if arg.endswith(".json") and not (self.root / arg).is_file():
                        raise FileNotFoundError(arg)
            self.items = items
            _, problems = self.op(GOLDEN[0])  # one cold process: fills __pycache__
            if problems:
                raise RuntimeError("warm-up command failed: %s" % problems)
            repeats.append(time.perf_counter() - start)
        return statistics.median(repeats)

    def _spawn(self, cmd):
        return subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)

    def op(self, item, tracer: Tracer | None = None):
        argv, check = item
        if tracer:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), *argv]
            root = tracer.begin(OP)
        else:
            cmd = [sys.executable, "-m", "cy_smoother.cli", *argv]
        start = time.perf_counter_ns()
        proc = self._spawn(cmd)
        elapsed = time.perf_counter_ns() - start
        if tracer:
            try:
                tracer.merge(json.loads(proc.stderr.splitlines()[-1]), root)
            except (IndexError, ValueError):  # the child died before writing its spans
                pass
            tracer.end(root)
            bare = time.perf_counter_ns()
            self._spawn([sys.executable, "-c", "pass"])
            tracer.add(INTERPRETER, bare, time.perf_counter_ns())
        if proc.returncode != 0:
            return elapsed, ["exit code %d: %s" % (proc.returncode, proc.stderr.strip())]
        return elapsed, _oracle(lambda: check(json.loads(proc.stdout)))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def make(name: str, root: Path, seed: int):
    if name == "paper-cli":
        return PaperCli(root, seed)
    return Generated(name, root, seed)


@dataclass
class Run:
    latencies_ms: list[float] = field(default_factory=list)
    failures: list[list[str]] = field(default_factory=list)
    probes_ms: list[float] = field(default_factory=list)

    def record(self, elapsed_ns: int, problems: list[str]) -> None:
        self.latencies_ms.append(elapsed_ns / 1e6)
        if problems:
            self.failures.append(problems)


def timed_run(workload, seconds: float) -> Run:
    """Cycle through the workload's items for ``seconds`` (and at least MIN_OPS ops)."""
    run = Run()
    now = time.perf_counter()
    deadline, next_probe = now + seconds, now
    for item in itertools.cycle(workload.items):
        run.record(*workload.op(item))
        now = time.perf_counter()
        if now >= next_probe:
            run.probes_ms.append(ref_loop_ms())
            next_probe = time.perf_counter() + PROBE_INTERVAL_S
        if now >= deadline and len(run.latencies_ms) >= MIN_OPS:
            return run


def traced_run(workload, seconds: float):
    """Alternate untraced and traced passes over all items until ``seconds``
    pass or MAX_SPANS spans are held.

    Whole passes keep every per-op count identical from run to run.
    Returns (run, tracer, per-layer metrics).
    """
    run = Run()
    tracer = Tracer()
    untraced_ns = traced_ns = 0
    deadline = time.perf_counter() + seconds
    while True:
        for item in workload.items:
            elapsed, problems = workload.op(item)
            untraced_ns += elapsed
            run.record(elapsed, problems)
        run.probes_ms.append(ref_loop_ms())
        tracer.install()
        try:
            for item in workload.items:
                tracer.op += 1
                elapsed, problems = workload.op(item, tracer)
                traced_ns += elapsed
                run.record(elapsed, problems)
        finally:
            tracer.uninstall()
        run.probes_ms.append(ref_loop_ms())
        if time.perf_counter() >= deadline or len(tracer.spans) >= MAX_SPANS:
            break
    metrics = layer_metrics(tracer, traced_ns / untraced_ns, statistics.median(run.probes_ms))
    return run, tracer, metrics
