"""Outside-in tracing: spans around calls into the package's public functions.

``Tracer.install`` wraps each function in TRACED and rebinds it at every
import site in the loaded ``cy_smoother`` modules, because some modules
import functions by name (``smoothing`` imports ``kernel_basis``,
``solve_exact`` and ``quotient``; ``components`` imports ``intersect``).
Nothing inside the package changes.  Spans are kept in memory as
[name, start_ns, end_ns, parent index, op id] and written out as JSON lines
when the run ends; self times and per-op metrics are derived from them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, public function, span name).  A span name is the prefix of the
# per-layer metrics "<span>_ms" (mean self time per op) and "<span>_calls".
TRACED = (
    ("cli", "main", "cli.main"),
    ("schemas", "load_degeneration", "schemas.parse_degeneration"),
    ("schemas", "parse_degeneration", "schemas.parse_degeneration"),
    ("schemas", "report_to_dict", "schemas.serialize"),
    ("schemas", "dump_json", "schemas.serialize"),
    ("schemas", "degeneration_to_dict", "schemas.degeneration_to_dict"),
    ("catalog", "load_catalog", "catalog.load_catalog"),
    ("catalog", "search_pairs", "catalog.search_pairs"),
    ("catalog", "cy_invariants", "catalog.cy_invariants"),
    ("surface", "intersect", "surface.intersect"),
    ("components", "build_component", "components.build_component"),
    ("components", "triple_product", "components.triple_product"),
    ("components", "pair_h2_h4", "components.pair_h2_h4"),
    ("smoothing", "analyze", "smoothing.analyze"),
    ("smoothing", "check_smoothability", "smoothing.check_smoothability"),
    ("smoothing", "hodge_numbers", "smoothing.hodge_numbers"),
    ("smoothing", "compute_rg2", "smoothing.compute_rg2"),
    ("smoothing", "compute_rg4_and_consur", "smoothing.compute_rg4_and_consur"),
    ("smoothing", "cubic_form", "smoothing.cubic_form"),
    ("smoothing", "c2_form", "smoothing.c2_form"),
    ("smoothing", "move_top_center", "smoothing.move_top_center"),
    ("exact_lattice", "smith_normal_form", "exact_lattice.smith_normal_form"),
    ("exact_lattice", "hermite_row_form", "exact_lattice.hermite_row_form"),
    ("exact_lattice", "kernel_basis", "exact_lattice.kernel_basis"),
    ("exact_lattice", "solve_exact", "exact_lattice.solve_exact"),
    ("exact_lattice", "intersect_column_lattices", "exact_lattice.intersect_column_lattices"),
    ("exact_lattice", "quotient", "exact_lattice.quotient"),
    ("invariant_forms", "aronhold_ST", "invariant_forms.aronhold_ST"),
    ("invariant_forms", "deformation_group", "invariant_forms.deformation_group"),
)

OP = "op"  # root span of one timed operation, recorded by the benchmark
IMPORT = "cli.import"  # import of cy_smoother.cli in a traced child process
INTERPRETER = "cli.interpreter"  # a bare `python -c pass`, beside each paper-cli op

# Per-layer metrics: (name, unit, better, end-to-end metric and workload it
# should move).  BENCHMARK.json lists the same names, units and directions.
PER_LAYER = (
    ("cli.interpreter_ms", "ms", "lower", "floor under paper-cli latency_p50_ms; no src change moves it"),
    ("cli.import_ms", "ms", "lower", "paper-cli latency_p50_ms"),
    ("cli.main_ms", "ms", "lower", "paper-cli latency_p50_ms"),
    ("schemas.parse_degeneration_ms", "ms", "lower", "paper-cli latency_p50_ms; 1-5% of generated ops"),
    ("schemas.serialize_ms", "ms", "lower", "paper-cli latency_p50_ms; 1-5% of generated ops"),
    ("schemas.degeneration_to_dict_ms", "ms", "lower", "paper-cli latency_p50_ms"),
    ("catalog.load_catalog_ms", "ms", "lower", "paper-cli latency_p50_ms and setup_s"),
    ("catalog.load_catalog_calls", "count", "lower", "paper-cli latency_p50_ms and setup_s"),
    ("catalog.search_pairs_ms", "ms", "lower", "paper-cli latency_p50_ms"),
    ("catalog.cy_invariants_calls", "count", "lower", "paper-cli latency_p50_ms"),
    ("surface.intersect_calls", "count", "lower", "quartic-lines throughput_ops_s"),
    ("surface.intersect_ms", "ms", "lower", "quartic-lines throughput_ops_s"),
    ("components.build_component_ms", "ms", "lower", "quartic-lines throughput_ops_s"),
    ("components.build_component_calls", "count", "lower", "quartic-lines throughput_ops_s"),
    ("components.triple_product_calls", "count", "lower", "sextic-wide throughput_ops_s"),
    ("components.triple_product_ms", "ms", "lower", "sextic-wide throughput_ops_s"),
    ("components.pair_h2_h4_calls", "count", "lower", "sextic-wide and quartic-lines throughput_ops_s"),
    ("components.pair_h2_h4_ms", "ms", "lower", "sextic-wide and quartic-lines throughput_ops_s"),
    ("smoothing.analyze_ms", "ms", "lower", "sextic-wide and quartic-lines latency_p50_ms"),
    ("smoothing.check_smoothability_ms", "ms", "lower", "quartic-lines throughput_ops_s"),
    ("smoothing.hodge_numbers_ms", "ms", "lower", "quartic-lines throughput_ops_s"),
    ("smoothing.compute_rg2_ms", "ms", "lower", "quartic-lines throughput_ops_s"),
    ("smoothing.compute_rg4_and_consur_ms", "ms", "lower", "quartic-lines throughput_ops_s"),
    ("smoothing.cubic_form_ms", "ms", "lower", "sextic-wide throughput_ops_s"),
    ("smoothing.c2_form_ms", "ms", "lower", "sextic-wide throughput_ops_s"),
    ("smoothing.move_top_center_ms", "ms", "lower", "paper-cli latency_p50_ms"),
    ("smoothing.rg4_generic_ratio", "ratio", "lower", "quartic-lines throughput_ops_s; base: RG4 calls"),
    ("smoothing.cubic_products_per_entry", "ratio", "lower", "sextic-wide throughput_ops_s; base: cubic entries"),
    ("exact_lattice.smith_normal_form_calls", "count", "lower", "quartic-lines throughput_ops_s"),
    ("exact_lattice.smith_normal_form_ms", "ms", "lower", "quartic-lines throughput_ops_s"),
    ("exact_lattice.hermite_row_form_calls", "count", "lower", "quartic-lines throughput_ops_s"),
    ("exact_lattice.hermite_row_form_ms", "ms", "lower", "quartic-lines throughput_ops_s"),
    ("exact_lattice.kernel_basis_ms", "ms", "lower", "quartic-lines throughput_ops_s"),
    ("exact_lattice.solve_exact_ms", "ms", "lower", "quartic-lines throughput_ops_s"),
    ("exact_lattice.intersect_column_lattices_ms", "ms", "lower", "quartic-lines throughput_ops_s"),
    ("exact_lattice.quotient_ms", "ms", "lower", "quartic-lines throughput_ops_s"),
    ("exact_lattice.max_matrix_cells", "count", "lower", "quartic-lines throughput_ops_s"),
    ("exact_lattice.max_entry_bits", "bits", "lower", "quartic-lines throughput_ops_s"),
    ("invariant_forms.aronhold_ST_ms", "ms", "lower", "paper-cli latency_p50_ms"),
    ("invariant_forms.deformation_group_ms", "ms", "lower", "paper-cli latency_p50_ms"),
    ("trace.op_ms", "ms", "lower", "diagnostic: mean traced op time"),
    ("trace.layer_coverage_ratio", "ratio", "higher", "diagnostic: layer self time over traced op time"),
    ("trace.overhead_ratio", "ratio", "lower", "diagnostic: traced over untraced op time"),
    ("host.ref_loop_ms", "ms", "lower", "diagnostic: host speed, to tell drift from regression"),
)


class Tracer:
    """Spans of traced calls, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.cubic_entries = 0
        self.max_matrix_cells = 0
        self.max_entry_bits = 0
        self._patches: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, name: str, start: int, end: int, parent: int = -1) -> None:
        """Record a finished span measured elsewhere (another process)."""
        self.spans.append([name, start, end, parent, self.op])

    def _note_matrices(self, args) -> None:
        for a in args:
            if type(a).__name__ == "IntMatrix":
                self.max_matrix_cells = max(self.max_matrix_cells, a.rows * a.cols)
                bits = max((abs(e).bit_length() for e in a.entries), default=0)
                self.max_entry_bits = max(self.max_entry_bits, bits)

    def _count_entries(self, tensor) -> None:
        self.cubic_entries += len(tensor.entries)

    def wrap(self, name: str, fn, before=None, after=None):
        """fn with a span named ``name`` around each call."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every TRACED function, wherever a loaded module holds it."""
        wrappers = {}
        for module, func, name in TRACED:
            mod = sys.modules.get("cy_smoother." + module)
            if mod is None:
                continue
            fn = getattr(mod, func)
            before = self._note_matrices if module == "exact_lattice" else None
            after = self._count_entries if func == "cubic_form" else None
            wrappers[id(fn)] = (fn, self.wrap(name, fn, before, after))
        for modname, mod in list(sys.modules.items()):
            if modname != "cy_smoother" and not modname.startswith("cy_smoother."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "cubic_entries": self.cubic_entries,
            "max_matrix_cells": self.max_matrix_cells,
            "max_entry_bits": self.max_entry_bits,
        }

    def merge(self, child: dict, parent: int) -> None:
        """Append a child process's exported spans under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, up, _ in child["spans"]:
            self.add(name, start, end, parent if up < 0 else up + offset)
        self.cubic_entries += child["cubic_entries"]
        self.max_matrix_cells = max(self.max_matrix_cells, child["max_matrix_cells"])
        self.max_entry_bits = max(self.max_entry_bits, child["max_entry_bits"])

    def write_jsonl(self, path: Path) -> None:
        """One span per line: [name, start_ns, end_ns, parent line or -1, op id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0, start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, overhead_ratio: float, ref_loop_ms: float) -> dict:
    """Every PER_LAYER metric from the recorded spans, per traced op."""
    spans = tracer.spans
    selfs = self_times(spans)
    ops = [i for i, s in enumerate(spans) if s[0] == OP]
    n_ops = len(ops)
    total_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(spans, selfs):
        total_ms[span[0]] = total_ms.get(span[0], 0.0) + own / 1e6
        calls[span[0]] = calls.get(span[0], 0) + 1

    by_parent: dict[int, list[str]] = {}
    for span in spans:
        by_parent.setdefault(span[3], []).append(span[0])
    rg4 = [i for i, s in enumerate(spans) if s[0] == "smoothing.compute_rg4_and_consur"]
    generic = sum("exact_lattice.quotient" in by_parent.get(i, ()) for i in rg4)
    cubic = [i for i, s in enumerate(spans) if s[0] == "smoothing.cubic_form"]
    cubic_products = sum(by_parent.get(i, []).count("components.triple_product") for i in cubic)
    op_ms = sum((spans[i][2] - spans[i][1]) / 1e6 for i in ops)
    layer_ms = sum(v for k, v in total_ms.items() if k not in (OP, INTERPRETER))

    derived = {
        "smoothing.rg4_generic_ratio": generic / len(rg4) if rg4 else 0.0,
        "smoothing.cubic_products_per_entry":
            cubic_products / tracer.cubic_entries if tracer.cubic_entries else 0.0,
        "exact_lattice.max_matrix_cells": tracer.max_matrix_cells,
        "exact_lattice.max_entry_bits": tracer.max_entry_bits,
        "trace.op_ms": op_ms / n_ops,
        "trace.layer_coverage_ratio": layer_ms / op_ms,
        "trace.overhead_ratio": overhead_ratio,
        "host.ref_loop_ms": ref_loop_ms,
    }
    out = {}
    for name, unit, _, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith("_ms"):
            value = total_ms.get(name[:-3], 0.0) / n_ops
        else:
            value = calls.get(name[: -len("_calls")], 0) / n_ops
        out[name] = {"value": value, "unit": unit}
    return out
