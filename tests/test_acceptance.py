"""Acceptance suite: every criterion at its stated (exact) tolerance.

All comparisons are exact integer equality; each criterion prints one
PASS line when it holds (pytest -s shows them).
"""

import json
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

from cy_smoother.catalog import (
    cy_invariants,
    find_family,
    load_catalog,
    search_pairs,
    xi_examples,
)
from cy_smoother.cli import main
from cy_smoother.components import triple_product
from cy_smoother.exact_lattice import kernel_basis, smith_normal_form
from cy_smoother.invariant_forms import (
    CubicTensor,
    CyInvariantTriple,
    aronhold_ST,
    deformation_group,
    rr_dimension,
)
from cy_smoother.smoothing import analyze, compute_rg2, hodge_numbers, move_top_center

import reference as ref
from conftest import MU_TABLE, NU_TABLE, make_model, without_lifts

EXAMPLES = Path(resources.files("cy_smoother").joinpath("data/examples"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def done(name):
    print("PASS acceptance: %s" % name)


def test_criterion_1_quick_example(capsys):
    """Quick example: rank 1 with generator (H, pi* H), rho^3 = 2,
    rho.c2 = 44, e = -296, consur unimodular; rr gives N = 199."""
    code, out = run_cli(capsys, "smooth", str(EXAMPLES / "quick.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["picard_rank"] == 1
    assert rep["picard_generators"] == [{"Y1": [1], "Y2": [1, 0]}]
    assert rep["cubic_tensor"]["entries"] == {"111": 2}
    assert rep["c2_covector"] == [44]
    assert rep["euler"] == -296
    assert rep["consur_unimodular"] is True
    assert all(h["status"] in ("pass", "assumed") for h in rep["hypotheses"])
    code, out = run_cli(capsys, "invariants", "rr", "--rho3", "2", "--rhoc2", "44",
                        "--n", "8")
    assert code == 0
    assert json.loads(out)["embedding_dimension_N"] == 199
    with capsys.disabled():
        done("1 quick example (2, 44, -296, N = 199, unimodular)")


def test_criterion_2_pair_one_both_configs(quartic, pair1_a, pair1_b):
    """Both configurations: cubic (2,5,5,5), second-generator c2 = 50,
    consur Gram [[1,0],[1,1]], Hodge (2,90); move-top maps A to B's report.
    The printed e1.c2 = 32 is NOT asserted; instead the full c2 covector
    must agree across the two configurations."""
    want_cubic = {(1, 1, 1): 2, (1, 1, 2): 5, (1, 2, 2): 5, (2, 2, 2): 5}
    rep_a = analyze(pair1_a)
    rep_b = analyze(pair1_b)
    for rep in (rep_a, rep_b):
        assert rep.cubic_tensor.entries == want_cubic
        assert rep.c2_covector[1] == 50
        assert rep.consur_gram == ((1, 0), (1, 1))
        assert rep.consur_unimodular
        assert (rep.h11, rep.h12) == (2, 90)
    assert rep_a.c2_covector == rep_b.c2_covector  # full covector agreement
    moved = analyze(move_top_center(pair1_a, 2))
    # the reports agree except for the lifted generator coordinates
    assert without_lifts(moved) == without_lifts(rep_b)
    done("2 pair 1 both configs ((2,5,5,5), 50, [[1,0],[1,1]], (2,90), move-top)")


def test_criterion_3_triple_example(triple_mu, triple_nu):
    """Both orderings: exact mu and nu tables, Hodge (3,83), S = 0 for
    both, T ratio 9/4 and values (-86400, -38400)."""
    rep_mu = analyze(triple_mu)
    rep_nu = analyze(triple_nu)
    assert rep_mu.cubic_tensor.entries == MU_TABLE
    assert rep_nu.cubic_tensor.entries == NU_TABLE
    assert (rep_mu.h11, rep_mu.h12) == (3, 83)
    assert (rep_nu.h11, rep_nu.h12) == (3, 83)
    s1, t1 = aronhold_ST(rep_mu.cubic_tensor)
    s2, t2 = aronhold_ST(rep_nu.cubic_tensor)
    assert s1 == 0 and s2 == 0
    assert Fraction(t1, t2) == Fraction(9, 4)
    assert (t1, t2) == (-86400, -38400)
    done("3 triple example (mu/nu tables, (3,83), S = 0, T = -86400/-38400)")


def test_criterion_4_fano_search():
    """Rank-one pair enumeration: exactly 26 pairs, group sizes
    {3,6,6,3,3,1,1,1,1,1}."""
    catalog = load_catalog()
    pairs = search_pairs(catalog, require_rank_one=True)
    assert len(pairs) == 26
    profile = sorted(Counter(a.delta for a, _ in pairs).values(), reverse=True)
    assert profile == [6, 6, 3, 3, 3, 1, 1, 1, 1, 1]
    done("4 fano search (26 pairs, profile {3,6,6,3,3,1,1,1,1,1})")


def test_criterion_5_xi_examples():
    """All seven constructed examples reproduce their printed triples."""
    expected = [
        ("Xi1", (44, 92, 68)),
        ("Xi2", (44, 92, 66)),
        ("Xi3", (44, 92, 64)),
        ("Xi4", (15, 66, 75)),
        ("Xi5", (8, 56, 88)),
        ("Xi6", (8, 56, 60)),
        ("Xi7", (5, 50, 92)),
    ]
    got = [
        (label, (t.rho_cubed, t.rho_c2, t.h12))
        for label, t in xi_examples(load_catalog())
    ]
    assert got == expected
    done("5 examples Xi1..Xi7 (all seven triples exact)")


def test_criterion_6_deformation_groups(capsys):
    """The four printed Hilbert-scheme groups."""
    code, out = run_cli(capsys, "fano", "groups")
    assert code == 0
    groups = {tuple(sorted(g["members"])) for g in json.loads(out)["groups"]}
    assert groups == {
        ("Xi1", "Xi2", "Xi3", "Z4"),
        ("Xi4", "Z3"),
        ("Xi5", "Xi6", "Z2"),
        ("Xi7", "Z1"),
    }
    with capsys.disabled():
        done("6 deformation groups (four groups exactly)")


def test_criterion_7_x6_cross_check():
    """The P(1^4,3) / P(1^3,2,3) pair yields (3, 42, 103)."""
    catalog = load_catalog()
    triple, rank_one, _ = cy_invariants(
        find_family(catalog, "X2"), find_family(catalog, "dP1")
    )
    assert (triple.rho_cubed, triple.rho_c2, triple.h12) == (3, 42, 103)
    assert rank_one
    done("7 X(6) cross-check (3, 42, 103)")


def test_criterion_8_property_suites(rng, quartic):
    """Randomized property checks with independent oracles."""
    # SNF / kernel / quotient correctness against the naive reference
    # algebra, which shares no code with the engine
    from test_exact_lattice import check_quotient, is_zero, random_matrix, times

    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, n, m, bound=6)
        U, S, V = smith_normal_form(M, m)
        assert times(U, M, V) == S
        assert abs(ref.det(U)) == 1 and abs(ref.det(V)) == 1
        diag = (S[t][t] for t in range(min(n, m)))
        assert tuple(d for d in diag if d) == ref.smith_invariants(M)
        basis = kernel_basis(ref.from_columns(M, m))
        K = ref.from_columns(basis, m)
        assert is_zero(ref.matmul(M, K))
        assert ref.is_saturated_basis(K)
        assert len(basis) == m - ref.rank(M)
        check_quotient(ref.from_columns(M, m), n)

    # cubic tensor symmetry and lift-independence; e = 2(h11 - h12);
    # d-semistability implies vanishing c2 correction on random G^2 classes
    models = [
        make_model(quartic, [], [(8,)]),
        make_model(quartic, [(5,)], [(3,)]),
        make_model(quartic, [], [(5,), (2,), (1,)]),
        make_model(quartic, [(2,)], [(5,), (1,)]),
    ]
    for m in models:
        h11, h12, euler = hodge_numbers(m)
        assert euler == 2 * (h11 - h12)
        rg2 = compute_rg2(m)
        rep = analyze(m)
        tensor = rep.cubic_tensor
        n = tensor.rank
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    assert tensor.value(i, j, k) == tensor.value(k, i, j)
        w = rg2.degenerate
        shifts = [rng.randint(-2, 2) for _ in rg2.generators]
        shifted = rg2._replace(
            generators=tuple(
                tuple(a + t * b for a, b in zip(g, w))
                for g, t in zip(rg2.generators, shifts)
            ),
        )
        from cy_smoother.smoothing import c2_form, cubic_form

        assert cubic_form(m, shifted).entries == tensor.entries
        assert c2_form(m, shifted) == rep.c2_covector
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in rg2.g2_basis]
            vec = [0] * (m.y1.h2_rank + m.y2.h2_rank)
            for c, b in zip(coeffs, rg2.g2_basis):
                for i, e in enumerate(b):
                    vec[i] += c * e
            l1 = tuple(vec[: m.y1.h2_rank])
            l2 = tuple(vec[m.y1.h2_rank:])
            corr = triple_product(m.y1, l1, m.y1.D_class, m.y1.D_class)
            corr += triple_product(m.y2, l2, m.y2.D_class, m.y2.D_class)
            assert corr == 0

    # Aronhold GL(3,Z) invariance and scaling laws
    from test_invariant_forms import random_unimodular

    mu = CubicTensor(3, MU_TABLE)
    S0, T0 = aronhold_ST(mu)
    for lam in (2, 3):
        S, T = aronhold_ST(CubicTensor(3, {k: lam * v for k, v in mu.entries.items()}))
        assert (S, T) == (lam**4 * S0, lam**6 * T0)
    for _ in range(8):
        S, T = aronhold_ST(mu.change_basis(random_unimodular(rng)))
        assert (S, T) == (S0, T0)

    # deformation_group partition laws
    items = [("l%d" % i, CyInvariantTriple(rng.randint(1, 3), rng.choice([44, 50])))
             for i in range(20)]
    groups = deformation_group(items)
    assert sorted(m for g in groups for m in g["members"]) == sorted(
        l for l, _ in items
    )

    # two-path consistency on the quick-example pair
    catalog = load_catalog()
    p3 = find_family(catalog, "P3")
    closed, _, _ = cy_invariants(p3, p3)
    rep = analyze(make_model(quartic, [], [(8,)]))
    assert rep.cubic_tensor.entries[(1, 1, 1)] == closed.rho_cubed
    assert rep.c2_covector[0] == closed.rho_c2
    assert rep.h12 == closed.h12
    assert rr_dimension(closed, 8) - 1 == 199
    done("8 property suites (oracles, invariance, consistency)")
