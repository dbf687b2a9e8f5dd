"""Self-tests of the benchmark.  Run from the repository root:

    python -m pytest bench -q
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import families  # noqa: E402
import oracles  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cy_smoother.catalog import load_catalog  # noqa: E402
from cy_smoother.cli import main as cli_main  # noqa: E402
from cy_smoother.schemas import dump_json, parse_degeneration, report_to_dict  # noqa: E402
from cy_smoother.smoothing import analyze  # noqa: E402


def _report(case):
    model = parse_degeneration(case.doc, load_catalog())
    return json.loads(dump_json(report_to_dict(analyze(model))))


@pytest.mark.parametrize("family", sorted(families.GENERATORS))
def test_generator_valid_and_deterministic_across_seeds(family):
    make = families.GENERATORS[family]
    for seed in range(20):
        cases = make(seed)  # check_geometric runs on every case
        assert len(cases) == {"sextic-wide": 360, "quartic-lines": 180}[family]
        assert [c.doc for c in cases] == [c.doc for c in make(seed)]
    assert [c.doc for c in make(0)] != [c.doc for c in make(1)]


def _case(gram, h, y1, y2, family="quartic-lines", lines=0):
    k3 = {"gram": gram, "classes": ["c%d" % i for i in range(len(gram))],
          "polarization": h}
    doc = {"k3": k3, "Y1": {"base": "P3", "centers": y1},
           "Y2": {"base": "P3", "centers": y2}}
    return families.Case(family, doc, ("P3", "P3"), ((), ()), lines)


def test_checker_rejects_the_e_i_family():
    gram = [[4, 0, 0], [0, -2, 0], [0, 0, -2]]
    case = _case(gram, [1, 0, 0], [[0, 1, 0], [1, -1, 0]], [[0, 0, 1], [1, 0, -1]] + [[1, 0, 0]] * 6)
    with pytest.raises(families.NotGeometricError, match="h.c = 0"):
        families.check_geometric(case)


def test_checker_rejects_a_class_that_is_not_nef():
    gram, _ = families.quartic_lattice(1)
    # h + l meets the line l in -1 although h.l = 1 < h.(h + l) = 5
    case = _case(gram, [1, 0], [[1, 1]], [[7, -1]], lines=1)
    with pytest.raises(families.NotGeometricError, match="not nef"):
        families.check_geometric(case)


def test_checker_rejects_a_non_hyperbolic_gram():
    assert families.is_hyperbolic([[0, 3], [3, 0]], [1, 1])
    assert not families.is_hyperbolic([[4, 0], [0, 2]], [1, 0])


def test_quartic_roots_match_brute_force():
    import itertools

    for j in range(4):
        found = set()
        for a in range(-3, 4):
            for b in itertools.product(range(-4, 5), repeat=j):
                B, Q = sum(b), sum(x * x for x in b)
                if 0 < 4 * a + B <= 6 and 4 * a * a + 2 * a * B - 2 * Q == -2:
                    found.add((a, B))
        assert set(families.quartic_roots(j, 6)) == found


@pytest.mark.parametrize("family", sorted(families.GENERATORS))
def test_oracle_accepts_the_library_and_flags_corruption(family):
    case = families.GENERATORS[family](7)[-1]
    rep = _report(case)
    assert oracles.check_generated(case, rep) == []
    for corrupt in (
        lambda r: r.update(h12=r["h12"] + 1),
        lambda r: r.update(euler=r["euler"] - 2),
        lambda r: r["consur_gram"][0].__setitem__(0, 2),
        lambda r: r["hypotheses"][0].update(status="fail"),
        lambda r: r["cubic_tensor"]["entries"].update({"111": 3}),
    ):
        bad = copy.deepcopy(rep)
        corrupt(bad)
        if family == "sextic-wide" and bad["cubic_tensor"] != rep["cubic_tensor"]:
            continue  # no closed form for the sextic cubic
        assert oracles.check_generated(case, bad), corrupt


def test_golden_oracles_accept_the_cli_and_flag_corruption(monkeypatch):
    monkeypatch.chdir(ROOT)
    outputs = []
    for argv, check in oracles.GOLDEN:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(list(argv)) == 0
        outputs.append(json.loads(out.getvalue()))
        assert check(outputs[-1]) == [], argv
    for argv, check in oracles.GOLDEN:
        for (_, other), payload in zip(oracles.GOLDEN, outputs):
            if other is not check:
                assert workloads._oracle(check, payload), (argv, other)
    for (argv, check), payload in zip(oracles.GOLDEN, outputs):
        if argv[0] == "smooth":
            for key in ("h12", "euler", "picard_rank"):
                assert check(dict(payload, **{key: payload[key] + 1})), (argv, key)
            assert check(dict(payload, hypotheses=payload["hypotheses"][1:])), argv


def test_self_times_on_a_synthetic_tree():
    tree = [
        ["op", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["b", 20, 30, 1, 0],
        ["c", 50, 60, 0, 0],
        ["d", 55, 70, 0, 0],  # overlaps c: only 60..70 is new cover
        ["op", 200, 210, -1, 1],
    ]
    assert spans.self_times(tree) == [100 - 30 - 20, 20, 10, 10, 15, 10]


def test_layer_metrics_average_self_time_and_calls_per_op():
    tracer = spans.Tracer()
    tracer.spans = [
        ["op", 0, 4_000_000, -1, 0],
        ["surface.intersect", 0, 1_000_000, 0, 0],
        ["surface.intersect", 1_000_000, 2_000_000, 0, 0],
        ["op", 10_000_000, 12_000_000, -1, 1],
    ]
    m = spans.layer_metrics(tracer, 1.0, 5.0)
    assert m["surface.intersect_calls"]["value"] == 1.0
    assert m["surface.intersect_ms"]["value"] == 1.0
    assert m["trace.op_ms"]["value"] == 3.0
    assert m["trace.layer_coverage_ratio"]["value"] == pytest.approx(2 / 6)


def test_install_rebinds_name_imports_and_uninstall_restores():
    import cy_smoother.components as comp
    import cy_smoother.smoothing as sm

    originals = (sm.kernel_basis, comp.intersect)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sm.kernel_basis is not originals[0] and comp.intersect is not originals[1]
        _report(families.quartic_lines(0)[0])
        names = {s[0] for s in tracer.spans}
        assert {"exact_lattice.kernel_basis", "surface.intersect"} <= names
    finally:
        tracer.uninstall()
    assert (sm.kernel_basis, comp.intersect) == originals


@pytest.mark.parametrize("name", bench_run.WORKLOADS)
def test_call_counts_repeat_exactly_between_traced_runs(name):
    counts = []
    for _ in range(2):
        w = workloads.make(name, ROOT, 3)
        w.setup()
        w.items = w.items[:5]
        run, _, metrics = workloads.traced_run(w, 0)
        assert not run.failures
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] in ("count", "bits") or k.endswith("_ratio")
                       and not k.startswith("trace.")})
    assert counts[0] == counts[1]
    assert counts[0]["components.build_component_calls"] > 0


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(bench_run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in spans.PER_LAYER
    ]
    run = workloads.Run([1.0, 2.0] * 10)
    e2e = bench_run.end_to_end(run, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (k, v["unit"]) for k, v in e2e.items()
    ]


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sextic-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
