import io
import json
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
        ],
        ids=["square-below-minus-2", "float-center"],
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
        (["smooth", "{examples}/quick.json"], 0, ["euler:              -296"]),
        (["move-top", "{examples}/pair1_a.json", "--from", "2"], 0, ["    - 5"]),
        (["fano", "search", "--rank-one"], 0, ["count:          26"]),
        (["fano", "cy", "--v1", "X22", "--v2", "MM-12.3-15"], 0, ["h12:              68"]),
        # members must be a list: a tuple would print on one "members:" line
        (["fano", "groups"], 0, ["  members:", "    - Xi1"]),
        (["invariants", "cubic", "--file", "{examples}/mu_tensor.json"], 0, ["T:                   -86400"]),
        (["invariants", "rr", "--rho3", "2", "--rhoc2", "44", "--n", "8"], 0,
         ["chi:                    200"]),
        # the report is written before the stderr line
        (["smooth", "{doc}"], 3,
         ["hypotheses_ok:      False", "smoothing hypotheses failed: d_semistability"]),
    ],
    ids=["smooth", "move-top", "fano-search", "fano-cy", "fano-groups", "invariants-cubic",
         "invariants-rr", "smooth-exit-3"],
)
def test_table_format_every_subcommand(monkeypatch, tmp_path, argv, code, lines):
    doc = tmp_path / "not_d_semistable.json"
    doc.write_text(json.dumps(NOT_D_SEMISTABLE))
    argv = [a.format(examples=EXAMPLES, doc=doc) for a in argv]
    both = io.StringIO()
    monkeypatch.setattr(sys, "stdout", both)
    monkeypatch.setattr(sys, "stderr", both)
    assert main(argv + ["--format", "table"]) == code
    written = both.getvalue().splitlines()
    assert all(line in written for line in lines)
    at = [written.index(line) for line in lines]
    assert at == sorted(at)


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
        assert "rank 3" in err

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
        code, out, _ = run(capsys, "invariants", "rr", "--rho3", "2",
                           "--rhoc2", "44", "--n", "0")
        assert code == 0
        assert json.loads(out)["chi"] == 0
