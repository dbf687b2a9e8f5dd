import itertools
import json
import math
from pathlib import Path

import pytest

from cy_smoother import exact_lattice, smoothing
from cy_smoother.catalog import find_family, load_catalog
from cy_smoother.components import (
    P3,
    build_component,
    pair_h2_h4,
    triple_product,
)
from cy_smoother.exact_lattice import (
    echelon_rows,
    fiber_product,
    kernel_basis,
    quotient,
    sign_normalize_column,
    solve_exact,
)
from cy_smoother.invariant_forms import CubicTensor, aronhold_ST
from cy_smoother.schemas import MAX_CENTERS, load_degeneration, parse_tensor
from cy_smoother.smoothing import (
    InternalInconsistencyError,
    NormalCrossingModel,
    RG2Result,
    RG4Result,
    analyze,
    c2_form,
    check_smoothability,
    compute_rg2,
    compute_rg4_and_consur,
    cubic_form,
    hodge_numbers,
    move_top_center,
)
from cy_smoother.surface import K3Model, genus_from_square, intersect

import reference as ref
from conftest import MU_TABLE, NU_TABLE, make_model, without_lifts
from test_components import random_quartic_lines_model, random_sextic_model

RANDOM_MODELS = [random_quartic_lines_model, random_sextic_model]
GOLDEN = Path(__file__).parent / "golden"
EXAMPLES = Path(smoothing.__file__).parent / "data" / "examples"
BUNDLED = ["quick", "pair1_a", "pair1_b", "triple_mu", "triple_nu"]


def statuses(verdicts):
    return {v.key: v.status for v in verdicts}


class TestHypotheses:
    def test_quick_example_all_pass(self, quick_model):
        s = statuses(check_smoothability(quick_model))
        assert s == {
            "omega_trivial": "pass",
            "h1_vanishing": "assumed",
            "kahler_matching": "pass",
            "d_semistability": "pass",
        }

    def test_center_7h_breaks_d_semistability(self, quartic):
        s = statuses(check_smoothability(make_model(quartic, [], [(7,)])))
        assert s["d_semistability"] == "fail"
        assert s["omega_trivial"] == "pass"

    @pytest.mark.parametrize(
        "ids, n", [(("X6", "X6"), 2), (("Q", "X6"), 2), (("X6", "dP3"), 2), (("Q", "dP3"), 1)]
    )
    def test_kahler_candidate_scale(self, ids, n):
        # The candidate pair is positive at n = 1 only when both indices are >= 2.
        catalog = load_catalog()
        sextic = K3Model([[6]], ("h",), (1,))
        b1, b2 = (find_family(catalog, i) for i in ids)
        model = NormalCrossingModel(
            build_component(b1, sextic, []),
            build_component(b2, sextic, [(b1.index + b2.index,)]),
        )
        verdicts = check_smoothability(model)
        assert all(v.ok for v in verdicts)
        kahler = {v.key: v for v in verdicts}["kahler_matching"]
        assert kahler.status == "pass"
        assert kahler.note == (
            "sufficient-condition check only; candidate ample pair positive at n = %d" % n
        )

    def test_mismatched_k3(self, quartic):
        other = K3Model([[4, 1], [1, -2]], ("h", "d"), (1, 0))
        with pytest.raises(ValueError, match=r"^components reference different K3 models$"):
            NormalCrossingModel(
                build_component(P3, quartic, []), build_component(P3, other, [(4, 0)])
            )


class TestRG2:
    def test_quick_example(self, quick_model):
        rg2 = compute_rg2(quick_model)
        assert rg2.rank == 1
        assert rg2.generators == ((1, 1, 0),)  # (H | pi* H)

    def test_pair1_generators(self, pair1_a):
        rg2 = compute_rg2(pair1_a)
        assert rg2.rank == 2
        assert rg2.generators == ((1, 0, 1, 0), (5, -1, 0, 0))

    def test_triple_rank(self, triple_mu):
        assert compute_rg2(triple_mu).rank == 3

    def test_violated_d_semistability_raises(self, quartic):
        with pytest.raises(InternalInconsistencyError, match="d-semistability must be violated"):
            compute_rg2(make_model(quartic, [], [(7,)]))

    def test_rank_bookkeeping(self, quartic):
        for centers1, centers2 in ([], [(8,)]), ([(5,)], [(3,)]), ([(2,)], [(5,), (1,)]):
            m = make_model(quartic, centers1, centers2)
            rg2 = compute_rg2(m)
            k = ref.rank([*m.y1.restriction, *m.y2.restriction])
            assert rg2.rank == m.y1.h2_rank + m.y2.h2_rank - k - 1

    def test_generic_fallback_without_unit_coordinate(self):
        # A lattice with no (-2)-class, so h is ample and every center with
        # c.c >= 0 is nef.  (D, -D) has G^2 coordinates (3, 4): no unit
        # coordinate to drop, so RG^2 comes from the generic quotient.
        D = K3Model([[6, -1], [-1, -4]], ("a", "b"), (-1, 1))
        assert intersect(D, D.polarization, D.polarization) == 4
        centers1, centers2 = [(-1, 0)], [(-7, 8)]
        degrees = [(intersect(D, D.polarization, c), genus_from_square(intersect(D, c, c)))
                   for c in centers1 + centers2]
        assert degrees == [(7, 4), (25, 76)]
        model = NormalCrossingModel(
            build_component(P3, D, centers1), build_component(P3, D, centers2)
        )
        rg2 = compute_rg2(model)
        assert rg2.dropped_index == -1
        wc = solve_exact(rg2.g2_basis, rg2.degenerate)
        assert wc == (3, 4)
        rep = analyze(model)
        assert rep.hypotheses_ok
        assert (rep.h11, rep.h12, rep.euler) == (1, 99, -196)
        assert rep.picard_generators == (((1, 0), (1, 0)),)
        assert rep.cubic_tensor.entries == {(1, 1, 1): 2}
        assert rep.c2_covector == (44,)
        assert rep.consur_unimodular


INDICES = (1, 2, 3, 4, 6, 8, 12, 24)  # every Fano index r divides 24


class TestG4ClosedForm:
    @pytest.mark.parametrize("r", INDICES)
    def test_kernel_against_engine(self, r):
        # the engine pins the bytes; the reference checks, up to s = 6, that
        # the closed form is a basis of the saturated kernel
        for s in range(MAX_CENTERS + 1):
            row = [(r,) + (1,) * s]
            closed = smoothing._degree_row_kernel(r, s)
            engine = kernel_basis(ref.from_columns(row, s + 1))
            assert closed == [sign_normalize_column(k) for k in engine]
            if s <= 6:
                K = ref.from_columns(closed, s + 1)
                assert len(closed) == s and ref.is_saturated_basis(K)
                assert ref.matmul(row, K) == [[0] * s]

    @pytest.mark.parametrize("r1", INDICES)
    def test_fiber_product_against_engine(self, r1):
        for r2, s1, s2 in itertools.product(INDICES, range(5), range(5)):
            d1, d2 = (r1,) + (1,) * s1, (r2,) + (1,) * s2
            columns1, columns2 = [(d,) for d in d1], [(d,) for d in d2]
            assert smoothing._g4_basis(r1, s1, r2, s2) == fiber_product(
                columns1, columns2
            ), (d1, d2)


def g4_scan(model):
    """The closed-form G^4 basis, stacked (Y1 | Y2)."""
    y1, y2 = model.components
    diag, vert1, vert2 = smoothing._g4_basis(
        y1.base.index, len(y1.centers), y2.base.index, len(y2.centers)
    )
    return diag + vert1 + vert2


def stacked_pair(model, lift, u):
    """lift.u: an H^2 class against an H^4 class, both stacked (Y1 | Y2)."""
    y1, y2 = model.components
    n1 = y1.h2_rank
    return pair_h2_h4(y1, lift[:n1], u[:n1]) + pair_h2_h4(y2, lift[n1:], u[n1:])


def rank_one_row(model, lift):
    """(scan, q): the G^4 basis and the lift's pairing row against it."""
    scan = g4_scan(model)
    return scan, [stacked_pair(model, lift, u) for u in scan]


def gcd_rank_one(model, lift):
    """The Gram [[g]] and its verdict, g the gcd of the lift's pairing row."""
    g = math.gcd(*rank_one_row(model, lift)[1])
    return RG4Result(((g,),), g == 1)


def general_rank_one(model, rg2):
    """The h11 >= 2 path of ``compute_rg4_and_consur`` on one generator,
    rebuilt from its steps: the saturated radical of the pairing row, the
    one-relation drop rule or the Smith-form ``quotient``, then the
    echelon form of the Gram."""
    (lift,) = rg2.generators
    scan, q = rank_one_row(model, lift)
    radical = kernel_basis([(e,) for e in q])
    n_diag = 1  # _g4_basis's diagonal block is one pair of preimages
    drop = smoothing._choose_drop(scan, radical[0], n_diag) if len(radical) == 1 else None
    if drop is not None:
        gens = [v for i, v in enumerate(scan) if i != drop]
    else:
        gens = [ref.combination(scan, c, len(scan[0])) for c in quotient(radical, len(scan))]
    if len(gens) != 1:
        raise InternalInconsistencyError("rank mismatch")
    cols = [[stacked_pair(model, lift, gens[0])]]
    echelon_rows(cols, [[]])
    return RG4Result(((cols[0][0],),), cols == [[1]])


def recording(monkeypatch, *names, module=smoothing):
    """Record each call of the named attributes of ``module`` as (name, args)."""
    calls = []
    for name in names:
        def spy(*args, _name=name, _real=getattr(module, name)):
            calls.append((_name, args))
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    return calls


class TestRG4Consur:
    def test_pair1_gram(self, pair1_a):
        rg2 = compute_rg2(pair1_a)
        rg4 = compute_rg4_and_consur(pair1_a, rg2)
        assert rg4.gram == ((1, 0), (1, 1))
        assert rg4.unimodular

    def test_quick_rank_one_pairing(self, quick_model):
        rg2 = compute_rg2(quick_model)
        rg4 = compute_rg4_and_consur(quick_model, rg2)
        assert rg4.gram == ((1,),)
        assert rg4.unimodular

    def test_degenerate_empty_rg2_vacuous(self, quick_model):
        fake = RG2Result(
            generators=(),
            g2_basis=(),
            degenerate=compute_rg2(quick_model).degenerate,
            dropped_index=-1,
        )
        rg4 = compute_rg4_and_consur(quick_model, fake)
        assert rg4.gram == ()
        assert rg4.unimodular

    @pytest.mark.parametrize("make", RANDOM_MODELS)
    def test_display_on_random_models(self, rng, make):
        for _ in range(12):
            model = make(rng)
            rg2 = compute_rg2(model)
            rg4 = compute_rg4_and_consur(model, rg2)
            G = rg4.gram
            assert len(G) == rg2.rank and all(len(row) == rg2.rank for row in G)
            assert all(G[i][j] == int(i == j) for i in range(rg2.rank) for j in range(i, rg2.rank))
            assert rg4.unimodular
            # RG^4 is G^4 modulo the radical, so the Gram's columns span the
            # pairings of the RG^2 generators with every G^4 class
            pairings = [[stacked_pair(model, g, u) for u in g4_scan(model)]
                        for g in rg2.generators]
            assert ref.same_lattice(G, pairings)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_verdict_read_off_the_triangular_gram(self, name):
        # the verdict is the echelon Gram's h11 unit pivots; doubling one RG^2
        # generator doubles a Gram row, so |det| = 2 and the pairing is not
        # unimodular.  The determinant is the reference's.
        model = load_degeneration(EXAMPLES / (name + ".json"), load_catalog())
        rg2 = compute_rg2(model)
        rg4 = compute_rg4_and_consur(model, rg2)
        assert rg4.unimodular is True
        assert abs(ref.det(rg4.gram)) == 1
        doubled = (tuple(2 * e for e in rg2.generators[0]),) + rg2.generators[1:]
        rg4 = compute_rg4_and_consur(model, rg2._replace(generators=doubled))
        assert rg4.unimodular is False
        assert abs(ref.det(rg4.gram)) == 2

    def test_non_square_gram_raises(self, pair1_a):
        # rank RG^4 = rank RG^2 always, so a surplus RG^2 generator can only
        # come from a broken upstream computation
        rg2 = compute_rg2(pair1_a)
        bad = rg2._replace(generators=rg2.generators + (rg2.degenerate,))
        with pytest.raises(InternalInconsistencyError, match="rank mismatch"):
            compute_rg4_and_consur(pair1_a, bad)


class TestRG4RankOne:
    """h11 = 1: the Gram is [[gcd q]] for the generator's pairing row q."""

    def test_equals_general_path(self, rng, monkeypatch):
        calls = recording(monkeypatch, "kernel_basis", "quotient", "echelon_rows")
        models = [random_quartic_lines_model(rng) for _ in range(200)]
        models.append(load_degeneration(EXAMPLES / "quick.json", load_catalog()))
        gcds = set()
        for model in models:
            rg2 = compute_rg2(model)
            assert rg2.rank == 1
            for k, t in ((1, 0), (-1, 1), (2, -2), (3, 3)):
                lift = tuple(k * a + t * w for a, w in zip(rg2.generators[0], rg2.degenerate))
                varied = rg2._replace(generators=(lift,))
                calls.clear()
                rg4 = compute_rg4_and_consur(model, varied)
                # the radical still feeds the rank check; no quotient, no echelon form
                assert [name for name, _ in calls] == ["kernel_basis"]
                assert rg4 == general_rank_one(model, varied) == gcd_rank_one(model, lift)
                gcds.add(rg4.gram[0][0])
        # (D, -D) pairs to zero with G^4, so the k-th multiple has gcd |k|
        assert gcds == {1, 2, 3}

    @pytest.mark.parametrize(
        "lift, q, g",
        [((2, 0, 3, 0), [0, 2, 3], 1), ((2, 0, 3, -1), [1, 2, -1], 1),
         ((-3, 1, -4, 0), [-1, 1, -4], 1), ((0, 0, 2, 0), [0, 0, 2], 2),
         ((4, -1, -4, 1), [0, 0, 0], 0)],
        ids=["last-not-gcd", "last-is-minus-gcd", "only-first-is-gcd", "gcd-2", "zero"],
    )
    def test_hand_built_pairing_rows(self, pair1_a, lift, q, g):
        # pair1_a's scan has three classes; one lift stands in for RG^2
        assert rank_one_row(pair1_a, lift)[1] == q
        rg2 = compute_rg2(pair1_a)._replace(generators=(lift,))
        if not g:
            for rg4 in (compute_rg4_and_consur, general_rank_one):
                with pytest.raises(InternalInconsistencyError, match="rank mismatch"):
                    rg4(pair1_a, rg2)
        else:
            expected = RG4Result(((g,),), g == 1)
            assert compute_rg4_and_consur(pair1_a, rg2) == general_rank_one(pair1_a, rg2) == expected
            assert gcd_rank_one(pair1_a, lift) == expected


class TestCubicAndC2:
    def test_quick(self, quick_model):
        rg2 = compute_rg2(quick_model)
        assert cubic_form(quick_model, rg2).entries == {(1, 1, 1): 2}
        assert c2_form(quick_model, rg2) == (44,)

    def test_pair1(self, pair1_a):
        rg2 = compute_rg2(pair1_a)
        assert cubic_form(pair1_a, rg2).entries == {
            (1, 1, 1): 2, (1, 1, 2): 5, (1, 2, 2): 5, (2, 2, 2): 5,
        }
        # e2.c2 = 50 matches the published value; the e1.c2 slot computes
        # to 26 + 18 = 44 from the same calibrated rules (the printed 32
        # is not reproducible from them and is not asserted anywhere).
        assert c2_form(pair1_a, rg2) == (44, 50)

    def test_tables(self, triple_mu, triple_nu):
        assert cubic_form(triple_mu, compute_rg2(triple_mu)).entries == MU_TABLE
        assert cubic_form(triple_nu, compute_rg2(triple_nu)).entries == NU_TABLE

    def test_lift_invariance(self, pair1_a, rng):
        rg2 = compute_rg2(pair1_a)
        base_cubic = cubic_form(pair1_a, rg2)
        base_c2 = c2_form(pair1_a, rg2)
        w = rg2.degenerate
        for _ in range(10):
            shifts = [rng.randint(-3, 3) for _ in rg2.generators]
            gens = tuple(
                tuple(a + t * b for a, b in zip(g, w))
                for g, t in zip(rg2.generators, shifts)
            )
            shifted = rg2._replace(generators=gens)
            assert cubic_form(pair1_a, shifted).entries == base_cubic.entries
            assert c2_form(pair1_a, shifted) == base_c2

    def test_c2_correction_vanishes_on_random_g2(self, quartic, rng):
        for centers1, centers2 in ([], [(8,)]), ([(5,)], [(3,)]), ([], [(5,), (2,), (1,)]):
            m = make_model(quartic, centers1, centers2)
            rg2 = compute_rg2(m)
            basis = rg2.g2_basis
            for _ in range(20):
                coeffs = [rng.randint(-4, 4) for _ in basis]
                vec = tuple(
                    sum(c * b[i] for c, b in zip(coeffs, basis))
                    for i in range(len(basis[0]))
                )
                l1, l2 = vec[: m.y1.h2_rank], vec[m.y1.h2_rank:]
                corr = triple_product(m.y1, l1, m.y1.D_class, m.y1.D_class)
                corr += triple_product(m.y2, l2, m.y2.D_class, m.y2.D_class)
                assert corr == 0

    def test_corrupted_lift_is_rejected(self, pair1_a):
        # a lift outside G^2 has a nonzero correction term and must error
        rg2 = compute_rg2(pair1_a)
        bad = rg2._replace(generators=((1, 0, 0, 0),) + rg2.generators[1:])
        with pytest.raises(InternalInconsistencyError):
            c2_form(pair1_a, bad)

    def test_lift_outside_g2_is_rejected_by_cubic(self, pair1_a):
        # (H, 0) does not restrict to the same class from both sides, so
        # (D, -D) cups to a nonzero value with it
        rg2 = compute_rg2(pair1_a)
        bad = rg2._replace(generators=((1, 0, 0, 0),) + rg2.generators[1:])
        with pytest.raises(InternalInconsistencyError, match="depends on the NG\\^2 lift"):
            cubic_form(pair1_a, bad)

    def test_perturbed_degenerate_is_rejected_by_cubic(self, pair1_a):
        # w + (H, 0) no longer pairs to zero with the cup products of G^2
        rg2 = compute_rg2(pair1_a)
        w = rg2.degenerate
        bad = RG2Result(rg2.generators, rg2.g2_basis, (w[0] + 1,) + w[1:], rg2.dropped_index)
        with pytest.raises(InternalInconsistencyError, match="depends on the NG\\^2 lift"):
            cubic_form(pair1_a, bad)

    @pytest.mark.parametrize("which", ["generator", "degenerate"])
    def test_wrong_length_lift_is_rejected_by_cubic(self, pair1_a, which):
        rg2 = compute_rg2(pair1_a)
        if which == "generator":
            bad = rg2._replace(
                generators=rg2.generators[:-1] + (rg2.generators[-1] + (0,),)
            )
        else:
            bad = rg2._replace(degenerate=rg2.degenerate[:-1])
        # every step that reads the lifts splits and checks them the same way;
        # RG^4 reads only the generators
        steps = [cubic_form, c2_form] + [compute_rg4_and_consur] * (which == "generator")
        for step in steps:
            with pytest.raises(ValueError, match="lift on Y2 has length"):
                step(pair1_a, bad)

    def test_zero_argument_kills_product(self, pair1_a):
        zero = (0, 0)
        assert triple_product(pair1_a.y1, (3, 1), zero, (2, -5)) == 0

    def test_mixed_terms_are_zero(self, pair1_a):
        # a class supported on Y1 cup one supported on Y2 contributes nothing
        rg2 = compute_rg2(pair1_a)
        only_y1 = (1, 0, 0, 0)
        only_y2 = (0, 0, 1, 0)
        l1a, l2a = only_y1[:2], only_y1[2:]
        l1b, l2b = only_y2[:2], only_y2[2:]
        mixed = triple_product(pair1_a.y1, l1a, l1a, l1b) + triple_product(
            pair1_a.y2, l2a, l2a, l2b
        )
        assert mixed == 0


def rr_violations(cubic, c2):
    """Where chi(O(x)) = x^3/6 + c2.x/12 fails to be an integer on the basis.

    In the binomial basis integrality is 2 T_iii + c_i = 0 mod 12 for each
    i and T_iij = T_ijj mod 2 for i != j (Wall's parity condition).
    """
    n = len(c2)
    bad = [(i,) for i in range(1, n + 1) if (2 * cubic.value(i, i, i) + c2[i - 1]) % 12]
    return bad + [
        (i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
        if (cubic.value(i, i, j) - cubic.value(i, j, j)) % 2
    ]


class TestRiemannRoch:
    def test_golden_reports(self):
        commands = json.loads((GOLDEN / "commands.json").read_text())
        smooth = [c["stdout"] for c in commands if c["argv"][0] == "smooth"]
        assert len(smooth) == 5
        for name in smooth:
            report = json.loads((GOLDEN / name).read_text())
            assert rr_violations(parse_tensor(report["cubic_tensor"]), report["c2_covector"]) == []

    @pytest.mark.parametrize("make", RANDOM_MODELS)
    def test_random_models(self, rng, make):
        for _ in range(20):
            rep = analyze(make(rng))
            assert rep.hypotheses_ok
            assert rr_violations(rep.cubic_tensor, rep.c2_covector) == []

    def test_oracle_flags_a_shifted_c2(self, triple_mu):
        rep = analyze(triple_mu)
        assert rr_violations(rep.cubic_tensor, (45,) + rep.c2_covector[1:]) == [(1,)]

    def test_analyze_rejects_a_shifted_c2(self, triple_mu, monkeypatch):
        real = smoothing.c2_form

        def shifted(model, rg2):
            c2 = real(model, rg2)
            return (c2[0] + 1,) + c2[1:]

        monkeypatch.setattr(smoothing, "c2_form", shifted)
        with pytest.raises(InternalInconsistencyError, match=r"integrality at \(1,\)$"):
            analyze(triple_mu)

    def test_analyze_rejects_broken_parity(self, triple_mu, monkeypatch):
        real = smoothing.cubic_form

        def shifted(model, rg2):
            T = real(model, rg2)
            return CubicTensor(T.rank, {**T.entries, (1, 1, 2): T.value(1, 1, 2) + 1})

        monkeypatch.setattr(smoothing, "cubic_form", shifted)
        with pytest.raises(InternalInconsistencyError, match=r"integrality at \(1, 2\)$"):
            analyze(triple_mu)


class TestHodge:
    def test_examples(self, quick_model, pair1_a, pair1_b, triple_mu):
        assert hodge_numbers(quick_model) == (1, 149, -296)
        assert hodge_numbers(pair1_a) == (2, 90, -176)
        assert hodge_numbers(pair1_b) == (2, 90, -176)
        assert hodge_numbers(triple_mu) == (3, 83, -160)

    @pytest.mark.parametrize("make", RANDOM_MODELS)
    def test_random_models_against_reference(self, rng, make):
        # k is the rank of the joint restriction (R1 | R2), read by the reference
        # from its transpose, whose rows are the columns of R1 and R2
        for _ in range(12):
            m = make(rng)
            k = ref.rank([*m.y1.restriction, *m.y2.restriction])
            h11, h12, euler = hodge_numbers(m)
            assert h11 == m.y1.h2_rank + m.y2.h2_rank - k - 1 == compute_rg2(m).rank
            assert (h12, euler) == (21 + m.y1.h12 + m.y2.h12 - k, 2 * (h11 - h12))


class TestMoveTop:
    def test_matches_other_config(self, pair1_a, pair1_b):
        moved = move_top_center(pair1_a, 2)
        assert without_lifts(analyze(moved)) == without_lifts(analyze(pair1_b))

    def test_involution(self, pair1_a):
        back = move_top_center(move_top_center(pair1_a, 1), 2)
        assert back.y1.centers == pair1_a.y1.centers
        assert back.y2.centers == pair1_a.y2.centers

    def test_empty_source_errors(self, quick_model):
        with pytest.raises(ValueError, match=r"^component 1 has no blow-up center to move$"):
            move_top_center(quick_model, 1)

    def test_swap_changes_basis_not_forms(self, quartic):
        """Swapping Y1 and Y2 preserves the cubic and c2 up to a basis change.

        The swapped generators, mirrored back to (Y1 | Y2) stacking, are
        integral combinations of the original generators and (D, -D); the
        transition matrix M carries one cubic and c2 onto the other.
        """
        model = make_model(quartic, [(5,)], [(2,), (1,)])
        swapped = NormalCrossingModel(model.y2, model.y1)
        rep, rep_s = analyze(model), analyze(swapped)
        assert rep.cubic_tensor != rep_s.cubic_tensor  # the lifted bases differ
        rg2 = compute_rg2(model)
        span = list(rg2.generators) + [rg2.degenerate]
        cols = []
        for on_y2, on_y1 in rep_s.picard_generators:
            coords = solve_exact(span, on_y1 + on_y2)
            assert coords is not None
            cols.append(coords[:-1])
        M = ref.from_columns(cols, len(cols[0]))
        assert rep.cubic_tensor.change_basis(M) == rep_s.cubic_tensor
        assert tuple(
            sum(M[i][j] * c for i, c in enumerate(rep.c2_covector)) for j in range(len(cols))
        ) == rep_s.c2_covector

    def test_rank_two_sextic_keeps_invariants(self):
        """A move keeps the Hodge data, rank, consur verdict and hypotheses.

        The cubic, c2 and gram are written in the canonical generators of
        the new configuration, so they may change (moving from Y1 does
        here); the cubic forms must still not be told apart.
        """
        from cy_smoother.components import FanoFamily

        Q = FanoFamily("Q", 1, 3, 54, 0)
        dP3 = FanoFamily("dP3", 1, 2, 24, 5)
        # Pic = <f1, f2>, f1.f2 = 3, h = f1 + f2: a degree-6 K3 without (-2)-roots
        D = K3Model([[0, 3], [3, 0]], ("f1", "f2"), (1, 1))
        model = NormalCrossingModel(
            build_component(Q, D, [(2, 1), (1, 1)]),
            build_component(dP3, D, [(1, 2), (1, 1)]),
        )
        rep = analyze(model)
        assert rep.hypotheses_ok and rep.picard_rank == 3

        def scalars(r):
            return (
                r.h11, r.h12, r.euler, r.picard_rank, r.consur_unimodular,
                tuple(v.status for v in r.hypothesis_verdicts),
            )

        payloads = []
        for idx in (1, 2):
            moved = analyze(move_top_center(model, idx))
            assert scalars(moved) == scalars(rep)
            assert aronhold_ST(moved.cubic_tensor) == aronhold_ST(rep.cubic_tensor)
            payloads.append(without_lifts(moved))
        assert payloads[0] != without_lifts(rep)

    def test_preserves_hodge_and_consur(self, pair1_a):
        for idx in (1, 2):
            moved = move_top_center(pair1_a, idx)
            assert hodge_numbers(moved) == hodge_numbers(pair1_a)
            rep = analyze(moved)
            assert rep.consur_unimodular


def rank_two_model():
    """P3 u P3 on the K3 lattice [[4, 1], [1, -2]] with h = (1, 0).

    The joint restriction image and the degree-4 radical have rank 2, so
    the generic quotient path runs end to end.  h-perp is spanned by
    (1, -4) of square -36, so no root is orthogonal to h and h is ample;
    the isotropic classes have h-degree 3 and 6, and the Y1 centers sum to
    4h, so equal weights glue on Y1.
    """
    D = K3Model([[4, 1], [1, -2]], ("h", "e"), (1, 0))
    return NormalCrossingModel(
        build_component(P3, D, [(3, 1), (1, -1)]), build_component(P3, D, [(4, 0)])
    )


class TestAnalyze:
    def test_failure_path_skips_lattice_work(self, quartic):
        rep = analyze(make_model(quartic, [], [(7,)]))
        assert not rep.hypotheses_ok
        assert rep.failed_hypotheses == ("d_semistability",)
        assert rep.picard_rank == -1
        assert rep.cubic_tensor is None

    def test_rank_two_k3_lattice(self, monkeypatch):
        calls = recording(monkeypatch, "quotient")
        rep = analyze(rank_two_model())
        assert rep.hypotheses_ok
        assert (rep.picard_rank, rep.h11, rep.h12) == (2, 2, 74)
        assert rep.euler == 2 * (rep.h11 - rep.h12)
        assert rep.consur_unimodular
        # one Smith quotient, on the rank-2 radical of the RG^4 pairing
        assert [len(args[0]) for _, args in calls] == [2]

    @pytest.mark.parametrize("rank_two", [False, True], ids=["pair1_a", "rank-two-k3"])
    def test_lattice_steps_run_the_public_functions(self, monkeypatch, rank_two):
        # the kernels' HNF and the intersection of the restriction images go
        # through the public names, looked up on the module at each call
        names = {"hermite_row_form", "intersect_column_lattices"}
        calls = recording(monkeypatch, *names, module=exact_lattice)
        model = rank_two_model() if rank_two else load_degeneration(
            EXAMPLES / "pair1_a.json", load_catalog())
        assert analyze(model).hypotheses_ok
        assert {name for name, _ in calls} == names

    def test_non_p3_bases_meet_closed_form(self):
        # quadric x cubic del Pezzo along a degree-6 K3: the smoothing has
        # the quintic's invariants, agreeing with the catalog closed forms
        from cy_smoother.components import FanoFamily

        Q = FanoFamily("Q", 1, 3, 54, 0)
        dP3 = FanoFamily("dP3", 1, 2, 24, 5)
        D6 = K3Model([[6]], ("h",), (1,))
        model = NormalCrossingModel(
            build_component(Q, D6, []), build_component(dP3, D6, [(5,)])
        )
        rep = analyze(model)
        assert rep.hypotheses_ok
        assert rep.picard_rank == 1
        assert rep.cubic_tensor.entries == {(1, 1, 1): 5}
        assert rep.c2_covector == (50,)
        assert (rep.h11, rep.h12, rep.euler) == (1, 101, -200)
        assert rep.consur_unimodular

        from cy_smoother.catalog import cy_invariants, find_family, load_catalog

        catalog = load_catalog()
        closed, rank_one, _ = cy_invariants(
            find_family(catalog, "Q"), find_family(catalog, "dP3")
        )
        assert rank_one
        assert (closed.rho_cubed, closed.rho_c2, closed.h12) == (5, 50, 101)
