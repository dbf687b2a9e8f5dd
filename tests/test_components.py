import itertools

import pytest

from cy_smoother.components import (
    FanoFamily,
    P3,
    _check_vec,
    _cup,
    build_component,
    pair_h2_h4,
    triple_product,
)
from cy_smoother.smoothing import NormalCrossingModel, _dot, compute_rg2, cubic_form
from cy_smoother.surface import K3Model, intersect

import reference as ref
from conftest import MU_TABLE, NU_TABLE


class TestBase:
    def test_p3(self):
        assert P3.H_cubed == 1

    def test_index_cube_divides(self):
        with pytest.raises(ValueError, match=r"^family 'bad': -K\^3 = 55 is not divisible "
                           r"by index\^2 = 9$"):
            FanoFamily("bad", 1, 3, 55, 0)

    def test_quadric(self):
        q = FanoFamily("Q", 1, 3, 54, 0)
        assert q.H_cubed == 2


class TestBuildComponent:
    def test_quick_example_c2(self, quartic):
        y = build_component(P3, quartic, [(8,)])
        assert _dot((1, 0), y.c2_covector) == 38  # pi* H . c2

    def test_single_center_cube(self, quartic):
        y = build_component(P3, quartic, [(5,)])
        assert triple_product(y, (5, -1), (5, -1), (5, -1)) == 5
        assert _dot((5, -1), y.c2_covector) == 50

    def test_reorder_changes_last_cube(self, quartic):
        y_mu = build_component(P3, quartic, [(5,), (2,), (1,)])
        y_nu = build_component(P3, quartic, [(5,), (1,), (2,)])
        two_minus_e2 = (2, 0, -1, 0)
        two_minus_e3 = (2, 0, 0, -1)
        assert triple_product(y_mu, two_minus_e2, two_minus_e2, two_minus_e2) == -32
        assert triple_product(y_nu, two_minus_e3, two_minus_e3, two_minus_e3) == -40

    def test_bare_p3_c2(self, quartic):
        y = build_component(P3, quartic, [])
        assert y.c2_covector == (6,)

    def test_restriction_of_D_class(self, quartic):
        y = build_component(P3, quartic, [(5,), (2,)])
        # x|_D combines the restriction map's columns (h, c_1, ..., c_s)
        restricted = ref.combination(y.restriction, y.D_class, 1)
        # r*h minus the sum of the center classes
        assert restricted == [4 * 1 - 5 - 2]

    def test_omega_triviality(self, quartic):
        # D = r H - sum e_i, the anticanonical class of the blow-up
        for centers in ([], [(8,)], [(5,), (2,), (1,)]):
            y = build_component(P3, quartic, centers)
            assert y.D_class == (4,) + (-1,) * len(centers)

    def test_projection_formula_on_pullbacks(self, quartic, rng):
        y = build_component(P3, quartic, [(5,), (2,)])
        for _ in range(20):
            a, b, c = (rng.randint(-4, 4) for _ in range(3))
            av = (a, 0, 0)
            bv = (b, 0, 0)
            cv = (c, 0, 0)
            assert triple_product(y, av, bv, cv) == a * b * c * P3.H_cubed

    def test_minus_k_dot_c2_is_24(self, quartic):
        for centers in ([], [(8,)], [(5,), (2,), (1,)], [(3,), (5,)]):
            y = build_component(P3, quartic, centers)
            assert _dot(y.D_class, y.c2_covector) == 24

    def test_full_tensor_symmetry(self, quartic):
        y = build_component(P3, quartic, [(5,), (2,), (1,)])
        n = y.h2_rank
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        for i, j, k in itertools.product(range(n), repeat=3):
            base = triple_product(y, unit[i], unit[j], unit[k])
            for p in itertools.permutations((i, j, k)):
                assert triple_product(y, *(unit[q] for q in p)) == base

    def test_D_cup_is_restriction_pairing(self, rng):
        """D.x.y = x|_D . y|_D, checked against the K3 Gram form alone."""
        quartic = K3Model.quartic()
        lines = K3Model(
            [[4, 1, 1], [1, -2, 0], [1, 0, -2]], ("h", "l1", "l2"), (1, 0, 0)
        )
        sextic = K3Model([[0, 3], [3, 0]], ("f1", "f2"), (1, 1))
        q = FanoFamily("Q", 1, 3, 54, 0)
        for base, D, pool in (
            (P3, quartic, [(1,), (2,), (3,), (5,)]),
            (P3, lines, [(0, 1, 0), (0, 0, 1), (1, 0, 0), (2, -1, 0), (3, -1, -1)]),
            (q, sextic, [(1, 0), (0, 1), (1, 1), (2, 1)]),
        ):
            for _ in range(20):
                centers = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
                try:
                    y = build_component(base, D, centers)
                except ValueError:  # two centers that meet negatively
                    continue
                for _ in range(5):
                    x, z = (tuple(rng.randint(-3, 3) for _ in range(y.h2_rank)) for _ in "xz")
                    x_D, z_D = (ref.combination(y.restriction, v, D.rank) for v in (x, z))
                    expected = intersect(D, x_D, z_D)
                    assert triple_product(y, y.D_class, x, z) == expected

    def test_h4_pairing_shape(self, quartic):
        y = build_component(P3, quartic, [(5,), (2,)])
        assert pair_h2_h4(y, (1, 0, 0), (1, 0, 0)) == 1  # H . g
        assert pair_h2_h4(y, (0, 1, 0), (0, 1, 0)) == -1  # e1 . M1
        assert pair_h2_h4(y, (0, 1, 0), (0, 0, 1)) == 0


class TestComponentErrors:
    def test_rejects_higher_rank_base(self, quartic):
        fat = FanoFamily("MM-12.3-1", 2, 1, 4, 22)
        with pytest.raises(ValueError, match=r"^base 'MM-12\.3-1' has b2 = 2; full lattice "
                           r"mode needs b2 = 1"):
            build_component(fat, quartic, [])

    def test_rejects_wrong_center_dimension(self, quartic):
        with pytest.raises(ValueError, match=r"^center \(1, 2\) does not lie in the declared "
                           r"Pic\(D\) \(rank 1\)$"):
            build_component(P3, quartic, [(1, 2)])

    def test_check_order(self):
        # degree first, then primitivity, then the length of each center
        X8 = FanoFamily("X8", 1, 2, 32, 0)  # delta 8
        D = K3Model([[2]], ("v",), (2,))  # h = 2v, h.h = 8
        with pytest.raises(ValueError, match="K3 degree h.h = 8 does not match base 'P3'"):
            build_component(P3, D, [(1, 2)])
        with pytest.raises(ValueError, match="not primitive"):
            build_component(X8, D, [(1, 2)])
        with pytest.raises(ValueError, match=r"center \(1, 2\) does not lie"):
            build_component(P3, K3Model.quartic(), [(1,), (1, 2)])

    def test_center_products_against_intersect(self, rng):
        gram = [[4, 1, 0], [1, -2, 1], [0, 1, -2]]
        D = K3Model(gram, ("h", "a", "b"), (1, 0, 0))
        built = 0
        for _ in range(60):
            centers = [(rng.randint(1, 6), rng.randint(-2, 2), rng.randint(-2, 2))
                       for _ in range(rng.randint(0, 3))]
            try:
                y = build_component(P3, D, centers)
            except ValueError:
                # a square below -2, two centers meeting negatively, or a center
                # with a fixed (-2)-class
                continue
            built += 1
            h = D.polarization
            assert y.degrees == tuple(intersect(D, h, c) for c in centers)
            assert y.mutual == tuple(tuple(intersect(D, c, e) for e in centers) for c in centers)
            assert y.genera == tuple(intersect(D, c, c) // 2 + 1 for c in centers)
        assert built > 10

    def test_rejects_negative_mutual_intersection(self):
        D = K3Model([[4, 1], [1, -2]], ("h", "d"), (1, 0))
        rational = (0, 1)  # square -2, degree 1
        other = (1, 2)     # square 0, degree 6; meets the first in -3
        with pytest.raises(ValueError, match="meet negatively"):
            build_component(P3, D, [rational, other])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rejects_center_with_a_fixed_minus_two_class(self, sign):
        # h.l = sign makes sign*l effective.  3h + 2 sign*l meets it in -1 but
        # has degree 14 > 1, so sign*l is a fixed component; sign*l itself (of
        # degree 1) is a curve.
        D = K3Model([[4, sign], [sign, -2]], ("h", "l"), (1, 0))
        build_component(P3, D, [(0, sign), (1, 0)])
        with pytest.raises(ValueError, match=r"^center 2 has c\.l = %d against h\.l = %d < h\.c: "
                           r"the \(-2\)-class is a fixed component" % (-sign, sign)):
            build_component(P3, D, [(1, 0), (3, 2 * sign)])

    def test_dimension_checked_in_products(self, quartic):
        y = build_component(P3, quartic, [(5,)])
        with pytest.raises(ValueError, match=r"^first vector has length 1, component H\^2 "
                           r"rank is 2$"):
            triple_product(y, (1,), (1, 0), (1, 0))
        with pytest.raises(ValueError, match=r"^lift has length 3, component H\^2 rank is 2$"):
            _check_vec(y, (1, 0, 0), "lift")

    def test_rejects_non_integer_vectors(self, quartic):
        y = build_component(P3, quartic, [(5,)])
        with pytest.raises(TypeError):
            triple_product(y, (1.9, 0), (1, 0), (1, 0))
        with pytest.raises(TypeError):
            pair_h2_h4(y, (1, 0), (1, "0"))
        with pytest.raises(TypeError):
            build_component(P3, quartic, [(5.0,)])
        assert build_component(P3, quartic, [(True,)]) == build_component(P3, quartic, [(1,)])
        assert triple_product(y, (True, False), (1, 0), (1, 0)) == triple_product(
            y, (1, 0), (1, 0), (1, 0)
        )


def test_mu_nu_calibration_tables(quartic):
    """The two full 10-entry tables, from the component calculus alone."""
    y1 = build_component(P3, quartic, [])
    y_mu = build_component(P3, quartic, [(5,), (2,), (1,)])
    y_nu = build_component(P3, quartic, [(5,), (1,), (2,)])
    gens1 = {1: (1,), 2: (0,), 3: (0,)}
    mu_gens = {1: (1, 0, 0, 0), 2: (5, -1, 0, 0), 3: (2, 0, -1, 0)}
    nu_gens = {1: (1, 0, 0, 0), 2: (5, -1, 0, 0), 3: (2, 0, 0, -1)}
    for table, y2, gens2 in ((MU_TABLE, y_mu, mu_gens), (NU_TABLE, y_nu, nu_gens)):
        for (i, j, k), expected in table.items():
            got = triple_product(y1, gens1[i], gens1[j], gens1[k]) + triple_product(
                y2, gens2[i], gens2[j], gens2[k]
            )
            assert got == expected, (i, j, k)


def rules_triple(Y, a, b, c):
    """Reference evaluator: the blow-up rules of the module docstring, term by
    term, with e_i^3 recomputed from the centers."""
    r, d, m, g = Y.base.index, Y.degrees, Y.mutual, Y.genera
    total = Y.base.H_cubed * a[0] * b[0] * c[0]
    for j in range(1, len(a)):
        e_cubed = -r * d[j - 1] + sum(m[k - 1][j - 1] for k in range(1, j)) + 2 - 2 * g[j - 1]
        total += e_cubed * a[j] * b[j] * c[j]
        total -= d[j - 1] * (a[0] * b[j] * c[j] + a[j] * b[0] * c[j] + a[j] * b[j] * c[0])
        for i in range(1, j):
            total -= m[i - 1][j - 1] * (a[i] * b[j] * c[j] + a[j] * b[i] * c[j] + a[j] * b[j] * c[i])
    return total


Q = FanoFamily("Q", 1, 3, 54, 0)
SEXTIC = K3Model([[0, 3], [3, 0]], ("f1", "f2"), (1, 1))


def random_quartic_lines_model(rng):
    """P3 | P3 on the quartic with j disjoint lines; one side also blows up
    R = 8h - sum l_i, so the centers sum to 8h."""
    j = rng.randint(0, 5)
    n = j + 1
    # h^2 = 4, h.l_i = 1, l_i^2 = -2, l_i.l_k = 0
    gram = [[-2 * (a == b) for b in range(n)] for a in range(n)]
    gram[0] = [4] + [1] * j
    for a in range(1, n):
        gram[a][0] = 1
    D = K3Model(gram, ("h",) + tuple("l%d" % i for i in range(j)),
                (1,) + (0,) * j)
    sides = ([], [])
    for i in range(j):
        sides[rng.randint(0, 1)].append(tuple(int(k == i + 1) for k in range(n)))
    sides[rng.randint(0, 1)].append((8,) + (-1,) * j)
    for side in sides:
        rng.shuffle(side)
    return NormalCrossingModel(build_component(P3, D, sides[0]), build_component(P3, D, sides[1]))


def random_sextic_model(rng):
    """Q | Q on <f1, f2>: c copies of h = f1 + f2 and 6 - c fibers of each
    pencil, on random sides and in random order, sum to 6h."""
    c = rng.randint(0, 6)
    centers = [(1, 1)] * c + [(1, 0)] * (6 - c) + [(0, 1)] * (6 - c)
    rng.shuffle(centers)
    cut = rng.randint(0, len(centers))
    return NormalCrossingModel(
        build_component(Q, SEXTIC, centers[:cut]), build_component(Q, SEXTIC, centers[cut:])
    )


class TestRulesOracle:
    """The covector evaluation against the literal blow-up rules."""

    @pytest.mark.parametrize("make", [random_quartic_lines_model, random_sextic_model])
    def test_products_and_covectors(self, rng, make):
        for _ in range(12):
            model = make(rng)
            for y in model.components:
                n = y.h2_rank
                unit = [tuple(int(i == k) for k in range(n)) for i in range(n)]
                for _ in range(6):
                    a, b, c, u = (tuple(rng.randint(-3, 3) for _ in range(n)) for _ in "abcu")
                    assert triple_product(y, a, b, c) == rules_triple(y, a, b, c)
                    cov = _cup(y, b, c)
                    assert cov == tuple(rules_triple(y, e, b, c) for e in unit)
                    assert cov == _cup(y, c, b)
                    assert pair_h2_h4(y, a, u) == a[0] * u[0] - sum(
                        a[i] * u[i] for i in range(1, n)
                    )

    @pytest.mark.parametrize("make", [random_quartic_lines_model, random_sextic_model])
    def test_every_cubic_entry(self, rng, make):
        for _ in range(12):
            model = make(rng)
            y1, y2 = model.components
            n1 = y1.h2_rank
            rg2 = compute_rg2(model)
            gens = rg2.generators
            halves = [(g[:n1], g[n1:]) for g in gens]
            entries = cubic_form(model, rg2).entries
            assert len(entries) == len(list(itertools.combinations_with_replacement(gens, 3)))
            for (i, j, k), value in entries.items():
                (a1, a2), (b1, b2), (c1, c2) = halves[i - 1], halves[j - 1], halves[k - 1]
                assert value == rules_triple(y1, a1, b1, c1) + rules_triple(y2, a2, b2, c2)
