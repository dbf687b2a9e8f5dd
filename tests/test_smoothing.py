import dataclasses
import itertools
import json
from pathlib import Path

import pytest

from cy_smoother import smoothing
from cy_smoother.catalog import find_family, load_catalog
from cy_smoother.components import (
    P3,
    ComponentError,
    build_component,
    c2_pair,
    pair_h2_h4,
    triple_product,
)
from cy_smoother.exact_lattice import (
    IntMatrix,
    fiber_product,
    kernel_basis,
    sign_normalize_column,
    solve_exact,
)
from cy_smoother.invariant_forms import DISTINCT, CubicTensor, forms_distinguishable
from cy_smoother.schemas import MAX_CENTERS, parse_tensor
from cy_smoother.smoothing import (
    InternalInconsistencyError,
    ModelError,
    NormalCrossingModel,
    RG2Result,
    analyze,
    c2_form,
    check_smoothability,
    compute_rg2,
    compute_rg4_and_consur,
    cubic_form,
    hodge_numbers,
    joint_restriction_rank,
    move_top_center,
)
from cy_smoother.surface import K3Model, curve_genus, intersect

from conftest import MU_TABLE, NU_TABLE, make_model
from test_components import random_quartic_lines_model, random_sextic_model

RANDOM_MODELS = [random_quartic_lines_model, random_sextic_model]
GOLDEN = Path(__file__).parent / "golden"


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
        sextic = K3Model(IntMatrix.from_rows([[6]]), ("h",), (1,))
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
        other = K3Model(IntMatrix.from_rows([[4, 1], [1, -2]]), ("h", "d"), (1, 0))
        with pytest.raises(ModelError):
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
            k = joint_restriction_rank(m)
            assert rg2.rank == m.y1.h2_rank + m.y2.h2_rank - k - 1

    def test_generic_fallback_without_unit_coordinate(self):
        # A lattice with no (-2)-class, so h is ample and every center with
        # c.c >= 0 is nef.  (D, -D) has G^2 coordinates (3, 4): no unit
        # coordinate to drop, so RG^2 comes from the generic quotient.
        D = K3Model(IntMatrix.from_rows([[6, -1], [-1, -4]]), ("a", "b"), (-1, 1))
        assert intersect(D, D.polarization, D.polarization) == 4
        centers1, centers2 = [(-1, 0)], [(-7, 8)]
        degrees = [(intersect(D, D.polarization, c), curve_genus(D, c))
                   for c in centers1 + centers2]
        assert degrees == [(7, 4), (25, 76)]
        model = NormalCrossingModel(
            build_component(P3, D, centers1), build_component(P3, D, centers2)
        )
        rg2 = compute_rg2(model)
        assert rg2.dropped_index == -1
        wc = solve_exact(IntMatrix.from_columns(rg2.g2_basis), rg2.degenerate)
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
        for s in range(MAX_CENTERS + 1):
            engine = kernel_basis(IntMatrix.from_rows([(r,) + (1,) * s]))
            assert smoothing._degree_row_kernel(r, s) == [
                sign_normalize_column(k) for k in engine.to_columns()
            ]

    @pytest.mark.parametrize("r1", INDICES)
    def test_fiber_product_against_engine(self, r1):
        for r2, s1, s2 in itertools.product(INDICES, range(5), range(5)):
            d1, d2 = (r1,) + (1,) * s1, (r2,) + (1,) * s2
            assert smoothing._g4_basis(r1, s1, r2, s2) == fiber_product(
                IntMatrix.from_rows([d1]), IntMatrix.from_rows([d2])
            ), (d1, d2)


class TestRG4Consur:
    def test_pair1_gram(self, pair1_a):
        rg2 = compute_rg2(pair1_a)
        rg4 = compute_rg4_and_consur(pair1_a, rg2)
        assert rg4.gram.to_rows() == [[1, 0], [1, 1]]
        assert rg4.unimodular
        # the published H^4 generators: (H1^2 - 4 M1, 0) and (M1, M1')
        assert rg4.generators == ((1, -4, 0, 0), (0, 1, 0, 1))

    def test_quick_rank_one_pairing(self, quick_model):
        rg2 = compute_rg2(quick_model)
        rg4 = compute_rg4_and_consur(quick_model, rg2)
        assert rg4.gram.to_rows() == [[1]]
        assert rg4.unimodular

    def test_degenerate_empty_rg2_vacuous(self, quick_model):
        fake = RG2Result(
            generators=(),
            g2_basis=(),
            degenerate=compute_rg2(quick_model).degenerate,
            dropped_index=-1,
        )
        rg4 = compute_rg4_and_consur(quick_model, fake)
        assert rg4.gram.shape == (0, 0)
        assert rg4.unimodular

    @pytest.mark.parametrize("make", RANDOM_MODELS)
    def test_display_on_random_models(self, rng, make):
        for _ in range(12):
            model = make(rng)
            n1 = model.y1.h2_rank
            rg2 = compute_rg2(model)
            rg4 = compute_rg4_and_consur(model, rg2)
            G = rg4.gram.to_rows()
            assert rg4.gram.shape == (rg2.rank, rg2.rank)
            assert all(G[i][j] == int(i == j) for i in range(rg2.rank) for j in range(i, rg2.rank))
            assert rg4.unimodular
            # the generators went through the same column operations as the Gram
            assert G == [
                [pair_h2_h4(model.y1, g[:n1], u[:n1]) + pair_h2_h4(model.y2, g[n1:], u[n1:])
                 for u in rg4.generators]
                for g in rg2.generators
            ]

    def test_non_square_gram_raises(self, pair1_a):
        # rank RG^4 = rank RG^2 always, so a surplus RG^2 generator can only
        # come from a broken upstream computation
        rg2 = compute_rg2(pair1_a)
        bad = dataclasses.replace(rg2, generators=rg2.generators + (rg2.degenerate,))
        with pytest.raises(InternalInconsistencyError, match="rank mismatch"):
            compute_rg4_and_consur(pair1_a, bad)


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
            shifted = dataclasses.replace(rg2, generators=gens)
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
        bad = dataclasses.replace(rg2, generators=((1, 0, 0, 0),) + rg2.generators[1:])
        with pytest.raises(InternalInconsistencyError):
            c2_form(pair1_a, bad)

    def test_lift_outside_g2_is_rejected_by_cubic(self, pair1_a):
        # (H, 0) does not restrict to the same class from both sides, so
        # (D, -D) cups to a nonzero value with it
        rg2 = compute_rg2(pair1_a)
        bad = dataclasses.replace(rg2, generators=((1, 0, 0, 0),) + rg2.generators[1:])
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
            bad = dataclasses.replace(
                rg2, generators=rg2.generators[:-1] + (rg2.generators[-1] + (0,),)
            )
        else:
            bad = dataclasses.replace(rg2, degenerate=rg2.degenerate[:-1])
        with pytest.raises(ComponentError, match="lift on Y2 has length"):
            cubic_form(pair1_a, bad)

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

    def test_euler_consistency_random(self, quartic, rng):
        for _ in range(15):
            degs1 = [(rng.randint(1, 4),) for _ in range(rng.randint(0, 2))]
            total = sum(d[0] for d in degs1)
            rest = 8 - total
            if rest < 1:
                continue
            m = make_model(quartic, degs1, [(rest,)])
            h11, h12, euler = hodge_numbers(m)
            assert euler == 2 * (h11 - h12)


class TestMoveTop:
    def test_matches_other_config(self, pair1_a, pair1_b):
        moved = move_top_center(pair1_a, 2)
        assert analyze(moved).invariant_payload() == analyze(pair1_b).invariant_payload()

    def test_involution(self, pair1_a):
        back = move_top_center(move_top_center(pair1_a, 1), 2)
        assert back.y1.centers == pair1_a.y1.centers
        assert back.y2.centers == pair1_a.y2.centers

    def test_empty_source_errors(self, quick_model):
        with pytest.raises(ModelError):
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
        span = IntMatrix.from_columns(list(rg2.generators) + [rg2.degenerate])
        cols = []
        for on_y2, on_y1 in rep_s.picard_generators:
            coords = solve_exact(span, on_y1 + on_y2)
            assert coords is not None
            cols.append(coords[:-1])
        M = IntMatrix.from_columns(cols).to_rows()
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
        D = K3Model(IntMatrix.from_rows([[0, 3], [3, 0]]), ("f1", "f2"), (1, 1))
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
            assert forms_distinguishable(rep.cubic_tensor, moved.cubic_tensor).verdict != DISTINCT
            payloads.append(moved.invariant_payload())
        assert payloads[0] != rep.invariant_payload()

    def test_preserves_hodge_and_consur(self, pair1_a):
        for idx in (1, 2):
            moved = move_top_center(pair1_a, idx)
            assert hodge_numbers(moved) == hodge_numbers(pair1_a)
            rep = analyze(moved)
            assert rep.consur_unimodular


class TestAnalyze:
    def test_failure_path_skips_lattice_work(self, quartic):
        rep = analyze(make_model(quartic, [], [(7,)]))
        assert not rep.hypotheses_ok
        assert rep.failed_hypotheses == ("d_semistability",)
        assert rep.picard_rank == -1
        assert rep.cubic_tensor is None

    def test_rank_two_k3_lattice(self):
        # joint restriction image of rank 2; the degree-4 radical has rank 2
        # as well, exercising the generic quotient path end to end
        D = K3Model(IntMatrix.from_rows([[4, 0], [0, -2]]), ("h", "e"), (1, 0))
        y1 = build_component(P3, D, [(3, 1), (1, -1)])
        y2 = build_component(P3, D, [(4, 0)])
        rep = analyze(NormalCrossingModel(y1, y2))
        assert rep.hypotheses_ok
        assert rep.picard_rank == rep.h11 == 2
        assert rep.euler == 2 * (rep.h11 - rep.h12)
        assert rep.consur_unimodular

    def test_non_p3_bases_meet_closed_form(self):
        # quadric x cubic del Pezzo along a degree-6 K3: the smoothing has
        # the quintic's invariants, agreeing with the catalog closed forms
        from cy_smoother.components import FanoFamily

        Q = FanoFamily("Q", 1, 3, 54, 0)
        dP3 = FanoFamily("dP3", 1, 2, 24, 5)
        D6 = K3Model(IntMatrix.from_rows([[6]]), ("h",), (1,))
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
