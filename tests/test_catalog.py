import json
from collections import Counter

import pytest

from cy_smoother.catalog import (
    cy_invariants,
    default_catalog_path,
    find_family,
    known_cy_table,
    load_catalog,
    search_pairs,
    xi_examples,
)
from cy_smoother.components import build_component
from cy_smoother.invariant_forms import rr_dimension
from cy_smoother.smoothing import NormalCrossingModel, _dot, analyze
from cy_smoother.surface import K3Model


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


class TestLoadCatalog:
    def test_seventeen_rank_one_rows(self, catalog):
        assert sum(1 for f in catalog if f.rank_one) == 17

    def test_p3_row(self, catalog):
        p3 = find_family(catalog, "P3")
        assert (p3.b2, p3.index, p3.minus_K_cubed, p3.h12) == (1, 4, 64, 0)
        assert p3.delta == 4

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("id,b2,index,minus_K_cubed,h12,provenance,description\n")
        assert load_catalog(empty) == ()

    def test_malformed_row_reports_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "id,b2,index,minus_K_cubed,h12,provenance,description\n"
            "ok,1,4,64,0,,fine\n"
            "broken,1,two,64,0,,oops\n"
        )
        with pytest.raises(ValueError, match=r"^catalog row 3 is malformed: invalid literal"):
            load_catalog(bad)

    @pytest.mark.parametrize("name", ["cat.json", "cat.txt"])
    def test_json_rows_numbered_by_position(self, tmp_path, name):
        # the format, not the suffix, decides how rows are numbered
        bad = tmp_path / name
        bad.write_text('[{"id": "A", "b2": 1, "index": 0, "minus_K_cubed": 4, "h12": 0}]')
        with pytest.raises(ValueError, match=r"^catalog row 1 is malformed: invalid numeric "
                           r"data for family 'A'$"):
            load_catalog(bad)

    @pytest.mark.parametrize(
        "field, value",
        [("index", 4.9), ("minus_K_cubed", 64.0), ("b2", True), ("h12", False),
         ("b2", "1")],
    )
    def test_json_rejects_float_and_bool(self, tmp_path, field, value):
        # int() would truncate 4.9 to 4, or parse "1", and load the row as P3
        row = {"id": "P3", "b2": 1, "index": 4, "minus_K_cubed": 64, "h12": 0, field: value}
        bad = tmp_path / "cat.json"
        bad.write_text(json.dumps([row]))
        with pytest.raises(ValueError, match=r"^catalog row 1 is malformed: field %r must "
                           r"be an integer, got %r$" % (field, value)):
            load_catalog(bad)

    @pytest.mark.parametrize("second", ["P3", "p3", " p3 "])
    def test_ids_equal_up_to_case_rejected(self, tmp_path, second):
        # find_family matches ids case-insensitively, so a second "p3" could
        # never be selected
        dup = tmp_path / "dup.csv"
        dup.write_text(
            "id,b2,index,minus_K_cubed,h12,provenance,description\n"
            "P3,1,4,64,0,,p3\n"
            "%s,1,4,64,0,,shadowed\n" % second
        )
        with pytest.raises(ValueError, match=r"^catalog row 3: duplicate id %r$"
                           % second.strip()):
            load_catalog(dup)

    def test_non_integral_delta_rejected(self, tmp_path):
        bad = tmp_path / "bad2.csv"
        bad.write_text(
            "id,b2,index,minus_K_cubed,h12,provenance,description\n"
            "weird,1,3,55,0,,delta is not integral\n"
        )
        with pytest.raises(ValueError, match=r"^catalog row 2 is malformed: family 'weird': "
                           r"-K\^3 = 55 is not divisible by index\^2 = 9$"):
            load_catalog(bad)

    def test_json_catalog(self, tmp_path):
        j = tmp_path / "cat.json"
        j.write_text(
            '[{"id": "P3", "b2": 1, "index": 4, "minus_K_cubed": 64, "h12": 0}]'
        )
        cat = load_catalog(j)
        assert len(cat) == 1 and cat[0].delta == 4

    def test_default_path_exists(self):
        assert default_catalog_path().exists()

    def test_unknown_family(self, catalog):
        with pytest.raises(ValueError, match=r"^unknown Fano family id 'P4'$"):
            find_family(catalog, "P4")


class TestSearchPairs:
    def test_rank_one_count(self, catalog):
        pairs = search_pairs(catalog, require_rank_one=True)
        assert len(pairs) == 26

    def test_delta_profile(self, catalog):
        pairs = search_pairs(catalog, require_rank_one=True)
        profile = Counter(p[0].delta for p in pairs)
        assert dict(profile) == {2: 3, 4: 6, 6: 6, 8: 3, 10: 3, 12: 1, 14: 1, 16: 1, 18: 1, 22: 1}
        assert sorted(profile.values(), reverse=True) == [6, 6, 3, 3, 3, 1, 1, 1, 1, 1]

    def test_singleton_catalog(self, catalog):
        only_p3 = [find_family(catalog, "P3")]
        assert len(search_pairs(only_p3)) == 1

    def test_mixed_count_deterministic(self, catalog):
        # the shipped catalog carries only the cited higher-rank rows, so
        # the mixed enumeration is incomplete by design; pin the current count
        all_pairs = search_pairs(catalog, require_rank_one=False)
        rank_one = search_pairs(catalog, require_rank_one=True)
        assert len(all_pairs) - len(rank_one) == 25
        assert all(a.delta == b.delta for a, b in all_pairs)


class TestCyInvariants:
    def test_quick_pair(self, catalog):
        p3 = find_family(catalog, "P3")
        triple, rank_one, note = cy_invariants(p3, p3)
        assert (triple.rho_cubed, triple.rho_c2, triple.h12) == (2, 44, 149)
        assert rank_one and note == ""

    def test_examples_91_to_97(self, catalog):
        expected = {
            "Xi1": (44, 92, 68),
            "Xi2": (44, 92, 66),
            "Xi3": (44, 92, 64),
            "Xi4": (15, 66, 75),
            "Xi5": (8, 56, 88),
            "Xi6": (8, 56, 60),
            "Xi7": (5, 50, 92),
        }
        got = {
            label: (t.rho_cubed, t.rho_c2, t.h12) for label, t in xi_examples(catalog)
        }
        assert got == expected

    def test_x6_cross_check(self, catalog):
        v1 = find_family(catalog, "X2")   # sextic in P(1,1,1,1,3)
        v2 = find_family(catalog, "dP1")  # sextic in P(1,1,1,2,3)
        triple, rank_one, _ = cy_invariants(v1, v2)
        assert (triple.rho_cubed, triple.rho_c2, triple.h12) == (3, 42, 103)
        assert rank_one

    def test_delta_mismatch(self, catalog):
        with pytest.raises(ValueError, match=r"^delta mismatch: P3 has 4, Q has 6$"):
            cy_invariants(find_family(catalog, "P3"), find_family(catalog, "Q"))

    def test_h12_identity_all_pairs(self, catalog):
        # every delta-matched pair gives a triple whose Riemann-Roch counts
        # chi(O(n rho)) are integers for n = 1..12
        pairs = search_pairs(catalog)
        assert len(pairs) == 51
        for v1, v2 in pairs:
            triple, _, _ = cy_invariants(v1, v2)
            for n in range(1, 13):
                rr_dimension(triple, n)

    def test_rank_one_verdict(self, catalog):
        q = find_family(catalog, "Q")
        p1s1 = find_family(catalog, "P1xS1")
        _, rank_one, _ = cy_invariants(q, p1s1)
        assert rank_one
        mm15 = find_family(catalog, "MM-12.3-15")
        mm16 = find_family(catalog, "MM-12.3-16")
        triple, rank_one, note = cy_invariants(mm15, mm16)
        assert not rank_one
        assert "assumed" in note

    def test_two_path_consistency_with_engine(self, catalog):
        # The closed form and the full lattice pipeline agree on every
        # rank-one pair, in both orientations: V1 unblown, glued along the
        # K3 [[delta]] to V2 blown up along (r1 + r2) h.  P3 | P3 is the
        # quick example.
        pairs = search_pairs(catalog, require_rank_one=True)
        for v1, v2 in pairs + tuple(p[::-1] for p in pairs):
            D = K3Model([[v1.delta]], ("h",), (1,))
            rep = analyze(NormalCrossingModel(
                build_component(v1, D, []),
                build_component(v2, D, [(v1.index + v2.index,)]),
            ))
            triple, rank_one, _ = cy_invariants(v1, v2)
            assert rank_one and rep.hypotheses_ok
            assert rep.picard_rank == 1 and rep.consur_unimodular
            assert (rep.cubic_tensor.entries[(1, 1, 1)], rep.c2_covector[0], rep.h12) == (
                triple.rho_cubed, triple.rho_c2, triple.h12
            ), (v1.id, v2.id)


class TestKnownTable:
    def test_lookups(self):
        table = dict(known_cy_table())
        assert table["X(8)"].key == (2, 44)
        z3 = table["Z3"]
        assert (z3.rho_cubed, z3.rho_c2, z3.h12) == (15, 66, 76)
        assert "nonsense" not in table

    def test_table_contents(self):
        labels = [label for label, _ in known_cy_table()]
        assert labels == ["X(8)", "X(6)", "Z1", "Z2", "Z3", "Z4"]


def test_every_rank_one_base_has_chi_one(catalog):
    """-K.c2 = 24 on every catalog base usable in full lattice mode."""
    for fam in catalog:
        if not fam.rank_one:
            continue
        # a matching K3: h^2 = delta
        D = K3Model([[fam.delta]], ("h",), (1,))
        y = build_component(fam, D, [])
        assert _dot(y.D_class, y.c2_covector) == 24
