import pytest

from cy_smoother.exact_lattice import IntMatrix
from cy_smoother.surface import K3Model, genus_from_square, intersect


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
        gram = IntMatrix.from_rows([[4, 1, 0], [1, -2, 1], [0, 1, -2]])
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
        D = K3Model(IntMatrix.from_rows([[4, 0], [0, -2]]), ("h", "e"), (1, 0))
        assert genus_from_square(intersect(D, (0, 1), (0, 1))) == 0

    def test_rejects_non_curve_square(self):
        D = K3Model(IntMatrix.from_rows([[4, 0], [0, -4]]), ("h", "e"), (1, 0))
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
            K3Model(IntMatrix.from_rows([[3]]), ("h",), (1,))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match=r"^Gram matrix must be symmetric$"):
            K3Model(IntMatrix.from_rows([[2, 1], [0, 2]]), ("a", "b"), (1, 0))

    def test_rejects_nonpositive_polarization(self):
        with pytest.raises(ValueError, match=r"^polarization must have positive even "
                           r"square, got -2$"):
            K3Model(IntMatrix.from_rows([[-2]]), ("e",), (1,))

    def test_polarization_checks(self, quartic):
        with pytest.raises(ValueError, match="polarization length does not match"):
            K3Model(IntMatrix.from_rows([[4]]), ("h",), (1, 0))
        with pytest.raises(TypeError):
            K3Model(IntMatrix.from_rows([[4]]), ("h",), (1.0,))
        assert K3Model(IntMatrix.from_rows([[4]]), ("h",), (True,)).degree == 4

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
            gram = IntMatrix.from_rows(rows)
            if sum(x * y for x, y in zip(h, gram.mul_vector(h))) <= 0:
                continue
            eig = np.linalg.eigvalsh(np.array(rows, dtype=float))
            hyperbolic = (eig > 1e-9).sum() == 1 and (abs(eig) <= 1e-9).sum() == 0
            try:
                K3Model(gram, tuple("x%d" % i for i in range(n)), h)
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
