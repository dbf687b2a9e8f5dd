import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from cy_smoother.cli import main
from cy_smoother.schemas import MAX_CENTERS, MAX_ENTRY, MAX_K3_RANK


EXAMPLES = Path(resources.files("cy_smoother").joinpath("data/examples"))
# parses, but (D, -D) is not in the fiber product: 7h on Y2 against nothing on Y1
NOT_D_SEMISTABLE = {
    "k3": {"gram": [[4]], "classes": ["h"], "polarization": [1]},
    "Y1": {"base": "P3", "centers": []},
    "Y2": {"base": "P3", "centers": [[7]]},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _at_caps(above: str = ""):
    """A degeneration at every input cap (rank, centers, |entry|), or one
    step above the cap named by ``above``.  At the caps it parses and then
    fails d-semistability: the centers sum to (MAX_CENTERS - 1 + MAX_ENTRY) h."""
    n = MAX_K3_RANK + (above == "rank")
    gram = [[4 if i == j == 0 else -2 * (i == j) for j in range(n)] for i in range(n)]
    gram[1][1] = -MAX_ENTRY - 2 * (above == "gram-entry")
    h = [1] + [0] * (n - 1)
    big = [MAX_ENTRY + (above == "center-entry")] + [0] * (n - 1)
    centers = [h] * (MAX_CENTERS - 1 + (above == "centers")) + [big]
    polarization = [MAX_ENTRY + 1] + h[1:] if above == "polarization-entry" else h
    return {
        "k3": {"gram": gram, "classes": ["c%d" % i for i in range(n)],
               "polarization": polarization},
        "Y1": {"base": "P3", "centers": centers},
        "Y2": {"base": "P3", "centers": []},
    }


class TestSmooth:
    def test_quick_example(self, capsys):
        code, out, _ = run(capsys, "smooth", str(EXAMPLES / "quick.json"))
        assert code == 0
        rep = json.loads(out)
        assert rep["picard_rank"] == 1
        assert rep["picard_generators"] == [{"Y1": [1], "Y2": [1, 0]}]
        assert rep["cubic_tensor"]["entries"] == {"111": 2}
        assert rep["c2_covector"] == [44]
        assert rep["euler"] == -296
        assert rep["consur_unimodular"] is True
        assert rep["torsion_note"] == "all results modulo torsion"

    def test_pair1(self, capsys):
        code, out, _ = run(capsys, "smooth", str(EXAMPLES / "pair1_a.json"))
        assert code == 0
        rep = json.loads(out)
        assert rep["cubic_tensor"]["entries"] == {"111": 2, "112": 5, "122": 5, "222": 5}
        assert rep["consur_gram"] == [[1, 0], [1, 1]]

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k3": {"gram": [[4]]}}')
        code, _, err = run(capsys, "smooth", str(bad))
        assert code == 2
        assert "error" in err

    def test_hypothesis_failure_exit_3(self, capsys, tmp_path):
        broken = tmp_path / "seven.json"
        broken.write_text(json.dumps(NOT_D_SEMISTABLE))
        code, out, err = run(capsys, "smooth", str(broken))
        assert code == 3
        assert "d_semistability" in err
        rep = json.loads(out)
        assert rep["hypotheses_ok"] is False

    @pytest.mark.parametrize(
        "y1, y2", [([[-1]], [[9]]), ([], [[8], [0], [0], [0]])], ids=["minus-h", "zero-classes"]
    )
    def test_nonpositive_degree_center_exit_2(self, capsys, tmp_path, y1, y2):
        doc = tmp_path / "degree.json"
        doc.write_text(
            json.dumps(
                {
                    "k3": {"gram": [[4]], "classes": ["h"], "polarization": [1]},
                    "Y1": {"base": "P3", "centers": y1},
                    "Y2": {"base": "P3", "centers": y2},
                }
            )
        )
        code, out, err = run(capsys, "smooth", str(doc))
        assert code == 2
        assert out == ""
        assert "h.c" in err

    @pytest.mark.parametrize(
        "k3, base, y1, y2, match",
        [
            ({"gram": [[2]], "classes": ["h"], "polarization": [1]}, "P3", [], [[8]], "K3 degree"),
            (
                {"gram": [[4, 0], [0, 2]], "classes": ["h", "x"], "polarization": [1, 0]},
                "P3", [[4, 1]], [[4, -1]], "not hyperbolic",
            ),
            (
                {"gram": [[4, 0], [0, 0]], "classes": ["h", "x"], "polarization": [1, 0]},
                "P3", [[4, 1]], [[4, -1]], "not hyperbolic",
            ),
            # h = 2v: degree 8 matches X8, but H|_D is primitive in Pic(D)
            (
                {"gram": [[2]], "classes": ["v"], "polarization": [2]},
                "X8", [[3]], [[1]], "not primitive",
            ),
        ],
        ids=["degree-2-under-P3", "positive-definite", "degenerate", "non-primitive-h"],
    )
    def test_impossible_k3_exit_2(self, capsys, tmp_path, k3, base, y1, y2, match):
        doc = tmp_path / "k3.json"
        doc.write_text(
            json.dumps(
                {"k3": k3, "Y1": {"base": base, "centers": y1},
                 "Y2": {"base": base, "centers": y2}}
            )
        )
        code, out, err = run(capsys, "smooth", str(doc))
        assert code == 2
        assert out == ""
        assert match in err

    @pytest.mark.parametrize(
        "k3, y1, y2, match",
        [
            (
                {"gram": [[4, 1], [1, -2]], "classes": ["h", "l"], "polarization": [1, 0]},
                [[1, 3]],
                [[7, -3]],
                "Y1: self-intersection -8 is not that of a curve class on a K3",
            ),
            (
                {"gram": [[4]], "classes": ["h"], "polarization": [1]},
                [[5.0]],
                [],
                "Y1.centers[0][0]: expected an integer",
            ),
            (
                # 3h + 2x meets the line x in -1 while h.x = 1 < h.c = 14, so x is
                # a fixed component; this used to report h11 = 1, h12 = 77
                {"gram": [[4, 1], [1, -2]], "classes": ["h", "x"], "polarization": [1, 0]},
                [[3, 2]],
                [[5, -2]],
                "Y1: center 1 has c.x = -1 against h.x = 1 < h.c: the (-2)-class is a fixed "
                "component",
            ),
        ],
        ids=["square-below-minus-2", "float-center", "center-not-nef"],
    )
    def test_bad_center_exit_2(self, capsys, tmp_path, k3, y1, y2, match):
        doc = tmp_path / "center.json"
        doc.write_text(
            json.dumps(
                {"k3": k3, "Y1": {"base": "P3", "centers": y1}, "Y2": {"base": "P3", "centers": y2}}
            )
        )
        code, out, err = run(capsys, "smooth", str(doc))
        assert code == 2
        assert out == ""
        assert match in err

    def test_input_at_the_caps_is_analyzed(self, capsys, tmp_path):
        doc = tmp_path / "caps.json"
        doc.write_text(json.dumps(_at_caps()))
        code, _, err = run(capsys, "smooth", str(doc))
        assert code == 3
        assert "d_semistability" in err

    @pytest.mark.parametrize(
        "which, match",
        [
            ("centers", "%d centers exceed the cap" % (MAX_CENTERS + 1)),
            ("rank", "lattice rank %d exceeds" % (MAX_K3_RANK + 1)),
            ("gram-entry", "exceeds the entry cap"),
            ("polarization-entry", "exceeds the entry cap"),
            ("center-entry", "exceeds the entry cap"),
        ],
    )
    def test_input_above_a_cap_exit_2(self, capsys, tmp_path, which, match):
        doc = tmp_path / "above.json"
        doc.write_text(json.dumps(_at_caps(which)))
        code, out, err = run(capsys, "smooth", str(doc))
        assert code == 2
        assert out == ""
        assert match in err

    def test_json_is_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "smooth", str(EXAMPLES / "quick.json"))
        _, out2, _ = run(capsys, "smooth", str(EXAMPLES / "quick.json"))
        assert out1 == out2

    def test_report_schema_round_trip(self, capsys):
        """Emitted report JSON re-validates against the documented shape."""
        _, out, _ = run(capsys, "smooth", str(EXAMPLES / "pair1_a.json"))
        rep = json.loads(out)
        assert set(rep) == {
            "torsion_note", "hypotheses", "hypotheses_ok", "h11", "h12",
            "euler", "picard_rank", "picard_generators", "cubic_tensor",
            "c2_covector", "consur_unimodular", "consur_gram",
        }
        assert isinstance(rep["hypotheses"], list) and len(rep["hypotheses"]) == 4
        for h in rep["hypotheses"]:
            assert set(h) == {"key", "description", "status", "note"}
            assert h["status"] in ("pass", "fail", "assumed")
        for key in ("h11", "h12", "euler", "picard_rank"):
            assert isinstance(rep[key], int)
        assert isinstance(rep["consur_unimodular"], bool)
        for gen in rep["picard_generators"]:
            assert set(gen) == {"Y1", "Y2"}
        tensor = rep["cubic_tensor"]
        assert set(tensor) == {"rank", "entries"}
        assert all(isinstance(v, int) for v in tensor["entries"].values())
        # round-trip: re-serializing the parsed payload is byte-identical
        from cy_smoother.schemas import dump_json
        assert dump_json(rep) == out


@pytest.mark.parametrize(
    "argv, code, lines",
    [
        # a blank line separates the dict items of a list at every depth
        (["smooth", "{examples}/quick.json"], 0,
         ["\n  key:          h1_vanishing", "euler:              -296"]),
        # the Gram is a list of lists: each row is an item, a blank line between rows
        (["smooth", "{examples}/pair1_a.json"], 0,
         ["consur_gram:\n  - 1\n  - 0\n\n  - 1\n  - 1"]),
        # the K3 Gram is a tuple of rows: written as a tuple it would print on one line
        (["move-top", "{examples}/pair1_a.json", "--from", "2"], 0,
         ["k3:\n  gram:\n    - 4", "    - 5"]),
        (["fano", "search", "--rank-one"], 0, ["count:          26"]),
        (["fano", "cy", "--v1", "X22", "--v2", "MM-12.3-15"], 0, ["h12:              68"]),
        # members must be a list: a tuple would print on one "members:" line
        (["fano", "groups"], 0,
         ["  members:", "    - Xi7\n    - Z1\n\n  rho_cubed:  8", "    - Xi1"]),
        (["invariants", "cubic", "--file", "{examples}/mu_tensor.json"], 0, ["T:                   -86400"]),
        (["invariants", "rr", "--rho3", "2", "--rhoc2", "44", "--n", "8"], 0,
         ["chi:                    200"]),
        # the report is written before the stderr line
        (["smooth", "{doc}"], 3,
         ["hypotheses_ok:      False", "smoothing hypotheses failed: d_semistability"]),
    ],
    ids=["smooth", "smooth-gram", "move-top", "fano-search", "fano-cy", "fano-groups",
         "invariants-cubic", "invariants-rr", "smooth-exit-3"],
)
def test_table_format_every_subcommand(monkeypatch, tmp_path, argv, code, lines):
    doc = tmp_path / "not_d_semistable.json"
    doc.write_text(json.dumps(NOT_D_SEMISTABLE))
    argv = [a.format(examples=EXAMPLES, doc=doc) for a in argv]
    both = io.StringIO()
    monkeypatch.setattr(sys, "stdout", both)
    monkeypatch.setattr(sys, "stderr", both)
    assert main(argv + ["--format", "table"]) == code
    # each expected entry is one or more whole lines, found in this order
    text = "\n" + both.getvalue()
    at = [text.find("\n%s\n" % block) for block in lines]
    assert -1 not in at and at == sorted(at)
    assert [line for line in text.splitlines() if line != line.rstrip()] == []


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_closed_stdout_exits_1_without_traceback(fmt):
    # the reader of stdout is gone before the report is written (`| head`)
    read_end, write_end = os.pipe()
    os.close(read_end)
    # block-buffered stdout, as under a shell pipe: the error may come at the flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cy_smoother.cli", "smooth",
             str(EXAMPLES / "triple_mu.json"), "--format", fmt],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize(
    "argv, choices",
    [
        ([], "{smooth,move-top,fano,invariants}"),
        (["fano"], "{search,cy,groups}"),
        (["invariants"], "{cubic,rr}"),
    ],
    ids=["top", "fano", "invariants"],
)
def test_missing_subcommand_names_the_choices(capsys, argv, choices):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: %s\n" % choices
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["smooth", "{dir}"],
        ["smooth", str(EXAMPLES / "quick.json"), "--catalog", "{dir}"],
        ["invariants", "cubic", "--file", "{dir}"],
    ],
    ids=["smooth-file", "catalog", "tensor-file"],
)
def test_unreadable_path_exit_2(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert "cannot read" in err


def test_json_catalog_with_float_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('[{"id": "P3", "b2": 1, "index": 4.9, "minus_K_cubed": 64, "h12": 0}]')
    code, out, err = run(capsys, "smooth", str(EXAMPLES / "quick.json"), "--catalog", str(bad))
    assert code == 2
    assert out == ""
    assert "catalog row 1 is malformed: field 'index' must be an integer, got 4.9" in err


def test_json_catalog_with_strings_exit_2(capsys, tmp_path):
    # int() would read every field and load the row as P3
    bad = tmp_path / "bad.json"
    bad.write_text('[{"id": "P3", "b2": "1", "index": " 4", "minus_K_cubed": "64", "h12": 0}]')
    code, out, err = run(capsys, "smooth", str(EXAMPLES / "quick.json"), "--catalog", str(bad))
    assert code == 2
    assert out == ""
    assert "catalog row 1 is malformed: field 'b2' must be an integer, got '1'" in err


def test_catalog_ids_equal_up_to_case_exit_2(capsys, tmp_path):
    # loaded, the second row could never be selected: --v1 p3 would read P3
    dup = tmp_path / "dup.csv"
    dup.write_text(
        "id,b2,index,minus_K_cubed,h12,provenance,description\n"
        "P3,1,4,64,0,,p3\n"
        "p3,1,4,64,0,,shadowed\n"
    )
    code, out, err = run(capsys, "fano", "cy", "--v1", "p3", "--v2", "P3", "--catalog", str(dup))
    assert code == 2
    assert out == ""
    assert "catalog row 3: duplicate id 'p3'" in err


@pytest.mark.parametrize(
    "part, key, message",
    [
        (None, "centres", "$: unknown field 'centres'"),
        ("k3", "polarisation", "k3: unknown field 'polarisation'"),
        ("Y1", "centres", "Y1: unknown field 'centres'"),
        ("Y2", "note", "Y2: unknown field 'note'"),
    ],
    ids=["top-level", "k3", "Y1", "Y2"],
)
def test_unknown_field_exit_2(capsys, tmp_path, part, key, message):
    # a misspelt "centers" used to run with no centers and exit 3
    doc = json.loads((EXAMPLES / "quick.json").read_text())
    (doc if part is None else doc[part])[key] = [[5]]
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "smooth", str(bad))
    assert code == 2
    assert out == ""
    assert message in err


CUBIC = ["invariants", "cubic", "--file", "{path}"]
WITH_CATALOG = ["smooth", str(EXAMPLES / "quick.json"), "--catalog", "{path}"]
SEARCH = ["fano", "search", "--catalog", "{path}"]
CSV_HEADER = "id,b2,index,minus_K_cubed,h12\n"
# past the interpreter's 4300-digit limit, json.loads raises a plain ValueError
HUGE = "9" * 5000


@pytest.mark.parametrize(
    "name, text, argv, message",
    [
        ("doc.json", json.dumps(dict(NOT_D_SEMISTABLE, Y1={"base": "P9", "centers": []})),
         ["smooth", "{path}"], "Y1.base: unknown Fano family id 'P9'"),
        ("t.json", '{"rank": 3, "entries": {"1a1": 1}}', CUBIC,
         "$.entries: bad tensor index key '1a1'"),
        ("t.json", '{"rank": 3, "entries": {"1,1": 1}}', CUBIC,
         "$.entries: tensor index '1,1' does not have three entries"),
        ("t.json", '{"rank": 3, "entries": {"112": 2, "121": 3}}', CUBIC,
         "$: conflicting values for symmetric entry (1, 1, 2)"),
        ("t.json", '{"rank": 3, "entries": {"111": 1}, "c2": [1, 2, 3]}', CUBIC,
         "$: unknown field 'c2'"),
        ("t.json", '{"rank": 100000000, "entries": {"111": 1}}', CUBIC,
         "Aronhold invariants need a rank-3 tensor, got rank 100000000"),
        ("doc.json", json.dumps(NOT_D_SEMISTABLE).replace("[[7]]", "[[%s]]" % HUGE),
         ["smooth", "{path}"], "{path}: invalid JSON: "),
        ("t.json", '{"rank": 3, "entries": {"111": %s}}' % HUGE, CUBIC,
         "{path}: invalid JSON: "),
        ("cat.json", '[{"id": "P3", "b2": 1', WITH_CATALOG,
         "{path}: catalog JSON is malformed"),
        ("cat.json", '[{"id": "P3", "b2": 1, "index": 4, "minus_K_cubed": %s, "h12": 0}]'
         % HUGE, ["fano", "cy", "--v1", "P3", "--v2", "P3", "--catalog", "{path}"],
         "{path}: catalog JSON is malformed: "),
        ("cat.json", '{"id": "P3"}', WITH_CATALOG, "catalog JSON must be a list of rows"),
        ("cat.csv", CSV_HEADER + "A,1,3,18,0\n", WITH_CATALOG,
         "catalog row 2 is malformed: family 'A': a rank-one base needs index^3 | -K^3"),
        ("cat.csv", CSV_HEADER + "A,2,1,3,0\nB,2,2,12,0\n",
         ["fano", "cy", "--v1", "A", "--v2", "B", "--catalog", "{path}"],
         "pair (A, B): rho^3 = 9/2 is not an integer"),
        ("cat.csv", "id,b2,index,minusKcubed,h12\n", ["fano", "search", "--catalog", "{path}"],
         "{path}: catalog header lacks minus_K_cubed"),
        ("cat.csv", "id,b2,index,minusKcubed,h12\nP3,1,4,64,0\n", WITH_CATALOG,
         "{path}: catalog header lacks minus_K_cubed"),
        ("cat.csv", CSV_HEADER + "P3,1,4\n", WITH_CATALOG,
         "catalog row 2 is malformed: field 'minus_K_cubed' is missing"),
        ("cat.json", "", ["fano", "search", "--catalog", "{path}"],
         "{path}: catalog JSON is malformed: Expecting value"),
        ("cat.json", '[{"id": "P3", "b2": 1, "minus_K_cubed": 64, "h12": 0}]', WITH_CATALOG,
         "catalog row 1 is malformed: field 'index' is missing"),
        ("cat.json", '[{"id": "P3", "b2": 1, "index": 4, "minus_K_cubed": 64, "h12": 0}, 7]',
         WITH_CATALOG, "catalog row 2 is not an object"),
        # the file line, counting the blank line csv.DictReader skips
        ("cat.csv", CSV_HEADER + "P3,1,4,64,0\n\nQ,1,3,54,0,extra\n",
         ["fano", "search", "--catalog", "{path}"],
         "catalog row 4 has more fields than the header"),
        ("cat.json", '[{"id": null, "b2": 1, "index": 4, "minus_K_cubed": 64, "h12": 0}]',
         SEARCH, "catalog row 1 is malformed: field 'id' must be a string, got None"),
        ("cat.json", '[{"id": "  ", "b2": 1, "index": 4, "minus_K_cubed": 64, "h12": 0}]',
         SEARCH, "catalog row 1 is malformed: field 'id' is blank"),
        ("cat.csv", CSV_HEADER + ",1,4,64,0\n", SEARCH,
         "catalog row 2 is malformed: field 'id' is blank"),
        ("cat.csv", "id,b2,index,minus_K_cubed,h12,provenance,descripton\nP3,1,4,64,0,,p3\n",
         SEARCH, "{path}: catalog header has unknown field 'descripton'"),
        ("cat.json",
         '[{"id": "P3", "b2": 1, "index": 4, "minus_K_cubed": 64, "h12": 0, "extra": 1}]',
         SEARCH, "catalog row 1 has unknown field 'extra'"),
        # JSON keeps the last value of a repeated key: each of these used to exit 0
        ("doc.json", '{"k3": {"gram": [[4]], "classes": ["h"], "polarization": [1]}, '
         '"Y1": {"base": "P3", "centers": [[5]], "centers": [[3]]}, '
         '"Y2": {"base": "P3", "centers": [[3]]}}', ["smooth", "{path}"],
         "{path}: invalid JSON: duplicate key 'centers'"),
        ("cat.json", '[{"id": "P3", "b2": 1, "index": 4, "minus_K_cubed": 64, "h12": 7, '
         '"h12": 0}]', SEARCH, "{path}: catalog JSON is malformed: duplicate key 'h12'"),
        ("t.json", '{"rank": 3, "entries": {"111": 1, "111": 2}}', CUBIC,
         "{path}: invalid JSON: duplicate key '111'"),
        ("cat.csv", CSV_HEADER.replace("\n", ",h12\n") + "P3,1,4,64,7,0\n", SEARCH,
         "{path}: catalog header names field 'h12' twice"),
        ("t.json", '{"rank": 3, "entries": {"123": 1, "1,2,3": 5}}', CUBIC,
         "$: conflicting values for symmetric entry (1, 2, 3)"),
        # a byte order mark is skipped, so the header and rows are read
        ("cat.csv", "\ufeff" + CSV_HEADER + "A,1,3,18,0\n", WITH_CATALOG,
         "catalog row 2 is malformed: family 'A': a rank-one base needs index^3 | -K^3"),
        ("t.json", '\ufeff{"rank": 3, "entries": {"1a1": 1}}', CUBIC,
         "$.entries: bad tensor index key '1a1'"),
    ],
    ids=["unknown-base", "tensor-key-letter", "tensor-key-two-indices",
         "tensor-conflicting-symmetric", "tensor-unknown-field", "aronhold-rank",
         "smooth-huge-int", "tensor-huge-int", "catalog-truncated-json", "catalog-huge-int",
         "catalog-json-not-a-list", "catalog-rank-one-divisibility", "fano-cy-rho-cubed",
         "catalog-header-typo-no-rows", "catalog-header-typo", "catalog-short-row",
         "catalog-blank-json", "catalog-json-missing-key", "catalog-json-row-not-object",
         "catalog-long-row", "catalog-json-null-id", "catalog-json-blank-id",
         "catalog-csv-blank-id", "catalog-csv-unknown-column", "catalog-json-unknown-key",
         "smooth-repeated-key", "catalog-json-repeated-key", "tensor-repeated-key",
         "catalog-csv-repeated-column", "tensor-index-spelt-two-ways", "catalog-csv-bom",
         "tensor-bom"],
)
def test_bad_input_exit_2(capsys, tmp_path, name, text, argv, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert out == ""
    assert message.format(path=path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["smooth", str(EXAMPLES / "pair1_a.json")],
        ["invariants", "cubic", "--file", str(EXAMPLES / "mu_tensor.json")],
        ["fano", "search", "--catalog", str(resources.files("cy_smoother")
                                            .joinpath("data/fano_catalog.csv"))],
        ["fano", "search", "--catalog", "cat.json"],
    ],
    ids=["degeneration", "tensor", "catalog-csv", "catalog-json"],
)
def test_bom_file_reads_as_its_plain_copy(capsys, tmp_path, argv):
    # spreadsheet exports start with a UTF-8 byte order mark (RFC 8259 section 8.1)
    (tmp_path / "cat.json").write_text(
        '[{"id": "P3", "b2": 1, "index": 4, "minus_K_cubed": 64, "h12": 0}]', encoding="utf-8")
    plain = tmp_path / argv[-1]  # an absolute argv[-1] replaces tmp_path
    bom = tmp_path / ("bom" + plain.suffix)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    expected = run(capsys, *argv[:-1], str(plain))
    assert expected[0] == 0
    assert run(capsys, *argv[:-1], str(bom)) == expected


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP items 2, 11 and 14: neither the ampleness of h nor an isotropic class "
           "of h-degree 1 or 2 is tested",
)
@pytest.mark.parametrize(
    "gram, y1, y2",
    [
        # h is orthogonal to the (-2)-root e, so h is not ample: h11 = 2, h12 = 86
        ([[4, 0], [0, -2]], [[4, 0]], [[4, 0]]),
        # x.x = 0 and h.x = 2: x would be an elliptic curve of degree 2 in P3,
        # and there is none: h11 = 1, h12 = 133
        ([[4, 2], [2, 0]], [[0, 1]], [[8, -1]]),
        # the same with h.x = 1, a unigonal quartic: h11 = 1, h12 = 141
        ([[4, 1], [1, 0]], [[0, 1]], [[8, -1]]),
    ],
    ids=["polarization-not-ample", "hyperelliptic-quartic", "unigonal-quartic"],
)
def test_known_wrong_report_exit_3(capsys, tmp_path, gram, y1, y2):
    doc = tmp_path / "wrong.json"
    doc.write_text(json.dumps({
        "k3": {"gram": gram, "classes": ["h", "x"], "polarization": [1, 0]},
        "Y1": {"base": "P3", "centers": y1},
        "Y2": {"base": "P3", "centers": y2},
    }))
    code, _, _ = run(capsys, "smooth", str(doc))
    assert code == 3


def _smooth_exit_code(capsys, tmp_path, gram, classes, polarization, y1, y2):
    """Exit code of ``smooth`` on a K3 lattice and two (base, centers) components."""
    doc = tmp_path / "probe.json"
    doc.write_text(json.dumps({
        "k3": {"gram": gram, "classes": classes, "polarization": polarization},
        "Y1": {"base": y1[0], "centers": y1[1]},
        "Y2": {"base": y2[0], "centers": y2[1]},
    }))
    return run(capsys, "smooth", str(doc))[0]


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 14: no isotropic class of h-degree 1 or 2 is looked for, "
           "though a smooth quartic holds no such curve",
)
@pytest.mark.parametrize(
    "gram",
    # these pass item 17: the Y1 centers (0, 1) and (8, -1) sum to 8h.
    # x.x = 0 with h.x = 2, then h.x = 1: h11 = 1, h12 = 133 and 141
    [[[4, 2], [2, 0]], [[4, 1], [1, 0]]],
    ids=["hyperelliptic-quartic-kahler", "unigonal-quartic-kahler"],
)
def test_isotropic_low_degree_class_exit_3(capsys, tmp_path, gram):
    code = _smooth_exit_code(capsys, tmp_path, gram, ["h", "x"], [1, 0],
                             ("P3", [[0, 1], [8, -1]]), ("P3", []))
    assert code == 3


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 17: kahler_matching passes every input, though no positive "
           "center weights make the two Kahler classes agree on D",
)
@pytest.mark.parametrize(
    "gram, classes, polarization, y1, y2",
    [
        # phi(a f1 + b f2) = b - a kills h, is >= 0 on the Y1 centers and
        # <= 0 on the Y2 centers, and is not zero on all: h11 = 4, h12 = 53
        ([[0, 3], [3, 0]], ["f1", "f2"], [1, 1],
         ("X6", [[1, 1], [0, 1], [1, 1]]), ("Q", [[1, 1], [1, 0]])),
        # t (8h - l) - t' l is a multiple of h only if t + t' = 0:
        # h11 = 1, h12 = 139
        ([[4, 1], [1, -2]], ["h", "l"], [1, 0], ("P3", [[8, -1]]), ("P3", [[0, 1]])),
    ],
    ids=["sextic-one-sided-weights", "quartic-line-opposite-side"],
)
def test_non_kahler_central_fiber_exit_3(capsys, tmp_path, gram, classes, polarization, y1, y2):
    code = _smooth_exit_code(capsys, tmp_path, gram, classes, polarization, y1, y2)
    assert code == 3


class TestMoveTop:
    def test_pipeline(self, capsys, tmp_path):
        code, out, _ = run(capsys, "move-top", str(EXAMPLES / "pair1_a.json"),
                           "--from", "2")
        assert code == 0
        moved = tmp_path / "moved.json"
        moved.write_text(out)
        code_b, out_b, _ = run(capsys, "smooth", str(moved))
        code_ref, out_ref, _ = run(capsys, "smooth", str(EXAMPLES / "pair1_b.json"))
        assert code_b == code_ref == 0
        rep_b = json.loads(out_b)
        rep_ref = json.loads(out_ref)
        for key in ("cubic_tensor", "c2_covector", "consur_gram", "h11", "h12", "euler"):
            assert rep_b[key] == rep_ref[key], key

    def test_empty_component_errors(self, capsys):
        code, _, err = run(capsys, "move-top", str(EXAMPLES / "quick.json"),
                           "--from", "1")
        assert code == 2
        assert "no blow-up center" in err


class TestFano:
    def test_search_rank_one(self, capsys):
        code, out, _ = run(capsys, "fano", "search", "--rank-one")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 26
        assert len(payload["pairs"]) == 26

    def test_cy(self, capsys):
        code, out, _ = run(capsys, "fano", "cy", "--v1", "X22", "--v2", "MM-12.3-15")
        assert code == 0
        payload = json.loads(out)
        assert (payload["rho_cubed"], payload["rho_c2"], payload["h12"]) == (44, 92, 68)

    def test_cy_unknown_family(self, capsys):
        code, _, err = run(capsys, "fano", "cy", "--v1", "X22", "--v2", "NOPE")
        assert code == 2
        assert "unknown Fano family" in err

    def test_groups(self, capsys):
        code, out, _ = run(capsys, "fano", "groups")
        assert code == 0
        groups = json.loads(out)["groups"]
        members = {tuple(sorted(g["members"])) for g in groups}
        assert members == {
            ("Xi1", "Xi2", "Xi3", "Z4"),
            ("Xi4", "Z3"),
            ("Xi5", "Xi6", "Z2"),
            ("Xi7", "Z1"),
        }

    def test_groups_all_known(self, capsys):
        code, out, _ = run(capsys, "fano", "groups", "--all-known")
        assert code == 0
        groups = json.loads(out)["groups"]
        flat = [m for g in groups for m in g["members"]]
        assert "X(8)" in flat and "X(6)" in flat

    def test_catalog_env_override(self, capsys, tmp_path, monkeypatch):
        mini = tmp_path / "mini.csv"
        mini.write_text(
            "id,b2,index,minus_K_cubed,h12,provenance,description\n"
            "P3,1,4,64,0,,p3\n"
        )
        monkeypatch.setenv("CY_SMOOTHER_CATALOG", str(mini))
        code, out, _ = run(capsys, "fano", "search", "--rank-one")
        assert code == 0
        assert json.loads(out)["count"] == 1


class TestInvariants:
    def test_cubic_mu(self, capsys):
        code, out, _ = run(capsys, "invariants", "cubic", "--file",
                           str(EXAMPLES / "mu_tensor.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["S"] == 0 and payload["T"] == -86400
        assert payload["s_is_zero"] is True

    def test_cubic_rank_2_exit_2(self, capsys, tmp_path):
        small = tmp_path / "binary.json"
        small.write_text('{"rank": 2, "entries": {"111": 1, "222": 1}}')
        code, _, err = run(capsys, "invariants", "cubic", "--file", str(small))
        assert code == 2
        assert "need a rank-3 tensor, got rank 2" in err

    def test_rr(self, capsys):
        code, out, _ = run(capsys, "invariants", "rr", "--rho3", "2",
                           "--rhoc2", "44", "--n", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["chi"] == 200
        assert payload["embedding_dimension_N"] == 199

    def test_rr_rejects_catalog(self, capsys):
        # only the subcommands that load the Fano catalog take --catalog
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "rr", "--rho3", "2", "--rhoc2", "44", "--n", "8",
                  "--catalog", "/nonexistent/x.csv"])
        assert exc.value.code == 2

    def test_rr_n_zero(self, capsys):
        # chi(O(0)) = 0 counts no sections: h^0 = chi needs n rho ample
        code, out, err = run(capsys, "invariants", "rr", "--rho3", "2",
                             "--rhoc2", "44", "--n", "0")
        assert (code, out) == (2, "")
        assert "--n must be at least 1, got 0" in err

    def test_rr_negative_n(self, capsys):
        # it used to print "embedding_dimension_N": -21 with exit 0
        code, out, err = run(capsys, "invariants", "rr", "--rho3", "2",
                             "--rhoc2", "44", "--n", "-3")
        assert (code, out) == (2, "")
        assert "--n must be at least 1, got -3" in err
