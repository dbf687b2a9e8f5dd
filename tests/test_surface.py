import pytest

from cy_smoother.schemas import degeneration_to_dict, dump_json, report_to_dict
from cy_smoother.smoothing import analyze
from cy_smoother.surface import K3Model, genus_from_square, gram_image, intersect

import reference as ref
from conftest import make_model


class TestIntersect:
    def test_quartic_values(self, quartic):
        assert intersect(quartic, (5,), (3,)) == 60
        assert intersect(quartic, (0,), (7,)) == 0
        assert intersect(quartic, (1,), (1,)) == 4

    def test_dimension_mismatch(self, quartic):
        with pytest.raises(ValueError, match=r"^vector length mismatch: lattice rank 1, "
                           r"got 2 and 1$"):
            intersect(quartic, (1, 0), (1,))

    def test_rejects_non_integer_vectors(self, quartic):
        # 1.5 is not truncated to 1 (which would give 6.0)
        with pytest.raises(TypeError):
            intersect(quartic, (1.5,), (1,))
        with pytest.raises(TypeError):
            intersect(quartic, (1,), ("1",))
        assert intersect(quartic, (True,), (1,)) == 4

    def test_symmetric_bilinear(self, rng):
        gram = [[4, 1, 0], [1, -2, 1], [0, 1, -2]]
        D = K3Model(gram, ("h", "a", "b"), (1, 0, 0))
        for _ in range(50):
            u = tuple(rng.randint(-5, 5) for _ in range(3))
            v = tuple(rng.randint(-5, 5) for _ in range(3))
            w = tuple(rng.randint(-5, 5) for _ in range(3))
            c = rng.randint(-3, 3)
            assert intersect(D, u, v) == intersect(D, v, u)
            uv = tuple(a + c * b for a, b in zip(u, v))
            assert intersect(D, uv, w) == intersect(D, u, w) + c * intersect(D, v, w)


class TestCurveGenus:
    def test_examples(self, quartic):
        assert genus_from_square(intersect(quartic, (8,), (8,))) == 129
        assert genus_from_square(intersect(quartic, (1,), (1,))) == 3

    def test_rejects_non_integer_coords(self, quartic):
        with pytest.raises(TypeError):
            intersect(quartic, (1.9,), (1.9,))

    def test_minus_two_curve(self):
        D = K3Model([[4, 0], [0, -2]], ("h", "e"), (1, 0))
        assert genus_from_square(intersect(D, (0, 1), (0, 1))) == 0

    def test_rejects_non_curve_square(self):
        D = K3Model([[4, 0], [0, -4]], ("h", "e"), (1, 0))
        with pytest.raises(ValueError, match=r"^self-intersection -4 is not that of a curve "
                           r"class on a K3$"):
            genus_from_square(intersect(D, (0, 1), (0, 1)))  # square -4 < -2

    def test_additivity(self, quartic, rng):
        # g(a+b) = g(a) + g(b) + a.b - 1, whenever all three are curve classes
        D = quartic

        def genus(c):
            return genus_from_square(intersect(D, c, c))

        for _ in range(40):
            a = (rng.randint(1, 6),)
            b = (rng.randint(1, 6),)
            ab = (a[0] + b[0],)
            assert genus(ab) == genus(a) + genus(b) + intersect(D, a, b) - 1


class TestK3Validation:
    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError, match=r"^K3 intersection form must be even$"):
            K3Model([[3]], ("h",), (1,))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match=r"^Gram matrix must be symmetric$"):
            K3Model([[2, 1], [0, 2]], ("a", "b"), (1, 0))

    def test_rejects_nonpositive_polarization(self):
        with pytest.raises(ValueError, match=r"^polarization must have positive even "
                           r"square, got -2$"):
            K3Model([[-2]], ("e",), (1,))

    def test_polarization_checks(self, quartic):
        with pytest.raises(ValueError, match="polarization length does not match"):
            K3Model([[4]], ("h",), (1, 0))
        with pytest.raises(TypeError):
            K3Model([[4]], ("h",), (1.0,))
        assert K3Model([[4]], ("h",), (True,)).degree == 4

    def test_hyperbolic_against_eigenvalues(self, rng):
        np = pytest.importorskip("numpy")
        verdicts = set()
        for _ in range(400):
            n = rng.randint(1, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = 2 * rng.randint(-3, 3)
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
            h = tuple(rng.randint(-2, 2) for _ in range(n))
            if sum(h[i] * rows[i][j] * h[j] for i in range(n) for j in range(n)) <= 0:
                continue
            eig = np.linalg.eigvalsh(np.array(rows, dtype=float))
            hyperbolic = (eig > 1e-9).sum() == 1 and (abs(eig) <= 1e-9).sum() == 0
            try:
                K3Model(rows, tuple("x%d" % i for i in range(n)), h)
                accepted = True
            except ValueError as exc:
                assert str(exc).startswith("Gram matrix is not hyperbolic"), exc
                accepted = False
            assert accepted == hyperbolic, (rows, h)
            verdicts.add(accepted)
        assert verdicts == {True, False}

    def test_degree(self, quartic):
        assert quartic.degree == 4
        assert quartic.rank == 1


class TestK3ModelEntries:
    @pytest.mark.parametrize(
        "gram",
        [[[2.5]], [["2"]], [["4", 1.9], [1.9, -2]], [[4, 1], [1, -2.0]]],
        ids=["float", "str", "str-and-float", "float-in-a-later-row"],
    )
    def test_rejects_non_integers(self, gram):
        n = len(gram)
        with pytest.raises(TypeError):
            K3Model(gram, tuple("x%d" % i for i in range(n)), (1,) + (0,) * (n - 1))

    @pytest.mark.parametrize("kind", ["bool", "numpy"])
    def test_integer_like_inputs_give_ints(self, kind):
        # the lattice <h, l> with h.l = 1: Y1 blown up along l, Y2 along 8h - l
        ints = ([[4, 1], [1, -2]], (1, 0), [(0, 1)], [(8, -1)])
        if kind == "bool":
            like = ([[4, True], [True, -2]], (True, False), [(False, True)], [(8, -1)])
        else:
            np = pytest.importorskip("numpy")
            like = tuple(np.array(x, dtype=np.int64) for x in ints)

        def model(gram, polarization, centers1, centers2):
            return make_model(K3Model(gram, ("h", "l"), polarization), centers1, centers2)

        m, expected = model(*like), model(*ints)
        vectors = [*m.k3.gram, m.k3.polarization, *m.y1.restriction, *m.y2.restriction]
        assert all(type(e) is int for v in vectors for e in v)
        # a bool would be written true, and a numpy integer does not serialize
        for to_dict in (degeneration_to_dict, lambda x: report_to_dict(analyze(x))):
            assert dump_json(to_dict(m)) == dump_json(to_dict(expected))


class TestGramImage:
    def test_against_matmul(self, rng):
        for _ in range(100):
            n = rng.randint(0, 5)
            G = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    G[i][j] = G[j][i] = rng.randint(-3, 3)
            v = [rng.choice((0, 0, 1, -2, 7)) for _ in range(n)]
            expected = [r[0] for r in ref.matmul(G, ref.from_columns([v], n))]
            assert gram_image(G, v) == expected
            assert gram_image(G, [0] * n) == [0] * n
