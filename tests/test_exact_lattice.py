"""The exact lattice engine, checked against the naive algebra of ``reference.py``.

The oracles share no code with ``exact_lattice``: products, determinants,
ranks, Smith invariants, saturation and lattice equality all come from
``reference``'s minors.  The pinned digests and the byte-for-byte tests of
one engine path against another check canonical bytes, which a lattice
oracle does not fix.
"""

import hashlib
import itertools
import random

import pytest

from cy_smoother.exact_lattice import (
    IntMatrix,
    fiber_product,
    hermite_row_form,
    intersect_column_lattices,
    kernel_basis,
    quotient,
    rank,
    sign_normalize_column,
    smith_normal_form,
    solve_exact,
    _factor,
    _kernel,
    _smith,
)

import reference as ref


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix(rows, cols, [rng.randint(-bound, bound) for _ in range(rows * cols)])


def times(*factors):
    """The product of the factors, each a list of rows, by the reference's schoolbook product."""
    rows = factors[0]
    for F in factors[1:]:
        rows = ref.matmul(rows, F)
    return rows


def is_zero(rows) -> bool:
    return not any(any(row) for row in rows)


def is_canonical(K) -> bool:
    """True iff the vectors K are in the engine's canonical shape for a lattice
    basis: the row-HNF in reversed coordinate order (``_canonical``)."""
    return ref.is_hnf([k[::-1] for k in reversed(K)])


def check_quotient(R: IntMatrix) -> list | None:
    """quotient(R) against its contract: the section, or None when it raised.

    With n = R.rows, a free quotient's section is n - rank(R) vectors of
    Z^n, and together with R's columns they span Z^n (the gcd of their
    n x n minors is 1), so it maps a basis of Z^n / R onto the quotient.
    A Smith invariant of 2 or more must raise instead.  Ranks and
    invariants come from ``reference``.
    """
    n, rows = R.rows, R.to_rows()
    if any(d >= 2 for d in ref.smith_invariants(rows)):
        with pytest.raises(ValueError, match="has torsion"):
            quotient(R)
        return None
    sec = quotient(R)
    assert len(sec) == n - ref.rank(rows) and all(len(c) == n for c in sec)
    assert ref.spans(ref.augment(rows, ref.from_columns(sec, n)))
    return sec


def singular_or_not(rng, rows, cols):
    """A random matrix, or half the time one whose last row is a combination
    of the others (a zero row when it is the only one), so its rank drops."""
    M = random_matrix(rng, rows, cols, bound=rng.choice((1, 3, 9)))
    if rows and rng.random() < 0.5:
        R = M.to_rows()
        coeffs = [rng.randint(-2, 2) for _ in R[:-1]]
        R[-1] = [sum(c * r[j] for c, r in zip(coeffs, R)) for j in range(cols)]
        M = IntMatrix.from_rows(R, cols=cols)
    return M


def random_unimodular(rng, n, steps=6):
    """The rows of a product of elementary matrices: |det| = 1 but rarely triangular."""
    E = ref.identity(n)
    for _ in range(steps if n else 0):
        step = ref.identity(n)
        i, j = rng.randrange(n), rng.randrange(n)
        step[i][j] = rng.randint(-3, 3) if i != j else -1
        E = times(E, step)
    return E


class TestIntMatrixEntries:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: IntMatrix(1, 1, [2.5]),
            lambda: IntMatrix(1, 1, ["2"]),
            lambda: IntMatrix.from_rows([["3", 1.9]]),
            lambda: IntMatrix.from_columns([[1, 2.0]]),
        ],
    )
    def test_rejects_non_integers(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("kind", ["bool", "numpy"])
    def test_derived_entries_are_ints(self, kind):
        # Integer-like inputs must not leak into matrices derived from them.
        if kind == "bool":
            M = IntMatrix.from_rows([[True, False, True], [False, True, True]])
            N = IntMatrix.from_columns([[True, True, False], [False, True, True]])
            R = N
        else:
            np = pytest.importorskip("numpy")
            M = IntMatrix.from_rows(np.array([[2, 4, 1], [6, 8, 3]], dtype=np.int64))
            N = IntMatrix.from_columns(np.array([[1, 2, 0], [3, 1, 5]], dtype=np.int64))
            # N's Smith invariants are (1, 5); the quotient needs free relations
            R = IntMatrix.from_columns(np.array([[2, 3, 5]], dtype=np.int64))
        derived = [
            M.entries,
            N.entries,
            *hermite_row_form(M),
            *kernel_basis(M),
            *itertools.chain(*smith_normal_form(M)),
            *check_quotient(R),
        ]
        for v in derived:
            assert all(type(e) is int for e in v), v


class TestIntMatrixAccess:
    M = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])

    def test_rows_and_columns(self):
        assert self.M.to_rows() == [[1, 2], [3, 4], [5, 6]]
        assert self.M.to_columns() == [[1, 3, 5], [2, 4, 6]]
        assert IntMatrix(0, 2, []).to_columns() == [[], []] == IntMatrix(2, 0, []).to_rows()
        assert IntMatrix(0, 2, []).to_rows() == [] == IntMatrix(2, 0, []).to_columns()

    def test_mul_vector_against_matmul(self, rng):
        for _ in range(100):
            M = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), bound=3)
            v = [rng.choice((0, 0, 1, -2, 7)) for _ in range(M.cols)]
            if v:
                product = ref.matmul(M.to_rows(), ref.from_columns([v], M.cols))
                expected = tuple(r[0] for r in product)
            else:  # a product with no inner index has no columns in the reference
                expected = (0,) * M.rows
            assert M.mul_vector(v) == expected
        with pytest.raises(ValueError, match="vector length 1, expected 2"):
            IntMatrix(3, 2, [0] * 6).mul_vector((1,))


class TestSmithNormalForm:
    @pytest.mark.parametrize(
        "rows, U, S, V",
        [
            ([[2], [3]], [[-1, 1], [3, -2]], [[1], [0]], [[1]]),
            ([[2, 3]], [[1]], [[1, 0]], [[-1, 3], [1, -2]]),
            ([[2, 0], [0, 3]], [[1, 1], [3, 2]], [[1, 0], [0, 6]], [[-1, 3], [1, -2]]),
        ],
        ids=["row-reelimination", "column-reelimination", "non-dividing-pivot"],
    )
    def test_pinned_transforms(self, rows, U, S, V):
        # U fixes the quotient's generators, so the exact transforms are pinned.
        # Every pivot in the bench pools is +-1, so the report digest never
        # reaches these branches: a remainder eliminated again in a row and in
        # a column, and a pivot that does not divide the rest of the block.
        assert smith_normal_form(IntMatrix.from_rows(rows)) == (U, S, V)

    def test_carried_inverse(self, rng):
        # _smith's W holds the columns of U^-1 for a Smith form S = U M V:
        # without companion rows it reaches the same S, and W S = M V with
        # |det W| = 1, by the reference's product and determinant
        for _ in range(150):
            bound = rng.choice((1, 4, 50))
            M = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), bound=bound)
            _, S, V = smith_normal_form(M)
            R = M.to_rows()
            W = _smith(R, M.rows, M.cols)
            assert R == S
            inverse = ref.from_columns(W, M.rows)
            assert abs(ref.det(inverse)) == 1
            assert ref.matmul(inverse, S) == ref.matmul(M.to_rows(), V)

    def test_digest_of_transforms_and_sections(self):
        # (U, S, V) and the quotient's section (or its torsion error) of 2000
        # seeded matrices, shapes 0-7 x 0-7, entry bound cycling 1, 3, 9, 1000,
        # 30% zeros.  The digest was taken from the elimination of commit
        # b6044b0, which kept U and inverted it with a full HNF and returned
        # each result as an IntMatrix: the lists are wrapped back to hash
        # the same bytes.
        gen = random.Random(20261019)
        digest = hashlib.sha256()
        for k in range(2000):
            n, m, bound = gen.randint(0, 7), gen.randint(0, 7), (1, 3, 9, 1000)[k % 4]
            M = IntMatrix(n, m, [0 if gen.random() < 0.3 else gen.randint(-bound, bound)
                                 for _ in range(n * m)])
            try:
                section = IntMatrix.from_columns(quotient(M), rows=n)
            except ValueError as exc:
                section = str(exc)
            U, S, V = smith_normal_form(M)
            snf = (IntMatrix.from_rows(U, cols=n), IntMatrix.from_rows(S, cols=m),
                   IntMatrix.from_rows(V, cols=m))
            digest.update(repr((snf, section)).encode())
        assert digest.hexdigest() == (
            "b740119375a9fa44c687d523627232091526c7cc955c774bcb66a55ce3aecbeb"
        )

    def test_digest_of_kernels_solutions_and_intersections(self):
        # kernel_basis, solve_exact (of an image vector and of an arbitrary
        # one), intersect_column_lattices, fiber_product and hermite_row_form
        # of 2000 seeded pairs M, N with one row count, shapes 0-7, entry
        # bound cycling 1, 3, 9, 1000, 30% zeros.  The digest was taken at
        # commit daf7075, whose factorizations ran the full HNF and whose
        # kernels, intersections and HNFs were IntMatrix results: they are
        # wrapped back to hash the same bytes.
        gen = random.Random(20261019)

        def matrix(n, m, bound):
            return IntMatrix(n, m, [0 if gen.random() < 0.3 else gen.randint(-bound, bound)
                                    for _ in range(n * m)])

        digest = hashlib.sha256()
        for k in range(2000):
            bound = (1, 3, 9, 1000)[k % 4]
            n, m, p = gen.randint(0, 7), gen.randint(0, 7), gen.randint(0, 7)
            M, N = matrix(n, m, bound), matrix(n, p, bound)
            x = [gen.randint(-bound, bound) for _ in range(m)]
            b = [gen.randint(-bound, bound) for _ in range(n)]
            outputs = (
                IntMatrix.from_columns(kernel_basis(M), rows=m),
                solve_exact(M, M.mul_vector(x)),
                solve_exact(M, b),
                IntMatrix.from_columns(intersect_column_lattices(M, N), rows=n),
                fiber_product(M, N),
                IntMatrix.from_rows(hermite_row_form(M), cols=m),
            )
            digest.update(repr(outputs).encode())
        assert digest.hexdigest() == (
            "072432ea8713d4e8d56c61c8036bc9273a30fea6ffa621bfd96bf2f3709c8fef"
        )

    def test_identity(self):
        U, S, V = smith_normal_form(IntMatrix.from_rows(ref.identity(2)))
        assert S == ref.identity(2) and times(U, ref.identity(2), V) == S

    def test_zero(self):
        Z = IntMatrix(2, 3, [0] * 6)
        U, S, V = smith_normal_form(Z)
        assert S == Z.to_rows()
        assert abs(ref.det(U)) == 1 and abs(ref.det(V)) == 1

    def test_2x2_example(self):
        M = IntMatrix.from_rows([[2, 4], [6, 8]])
        U, S, V = smith_normal_form(M)
        assert S == [[2, 0], [0, 4]]
        assert times(U, M.to_rows(), V) == S
        # |det| preserved through unimodular transforms
        assert abs(ref.det(S)) == abs(ref.det(M.to_rows())) == 8

    def test_randomized_contract(self, rng):
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            M = random_matrix(rng, rows, cols)
            U, S, V = smith_normal_form(M)
            assert times(U, M.to_rows(), V) == S
            assert abs(ref.det(U)) == 1
            assert abs(ref.det(V)) == 1
            diag = [S[t][t] for t in range(min(rows, cols))]
            assert tuple(d for d in diag if d) == ref.smith_invariants(M.to_rows())
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert S[i][j] == 0
            for a, b in zip(diag, diag[1:]):
                assert a >= 0 and b >= 0
                if a:
                    assert b % a == 0
                else:
                    assert b == 0

    def test_invariants_against_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        for _ in range(200):
            M = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            oracle = invariant_factors(sympy.Matrix(M.to_rows()), domain=sympy.ZZ)
            _, S, _ = smith_normal_form(M)
            diag = (S[t][t] for t in range(min(M.rows, M.cols)))
            assert tuple(d for d in diag if d) == tuple(abs(int(d)) for d in oracle if d)


class TestKernelBasis:
    def test_single_relation(self):
        assert kernel_basis(IntMatrix.from_rows([[1, -1]])) == [[1, 1]]

    def test_quick_example_relation(self):
        assert kernel_basis(IntMatrix.from_rows([[1, -1, -8]])) == [[1, 1, 0], [8, 0, 1]]

    def test_full_rank(self):
        assert kernel_basis(IntMatrix.from_rows(ref.identity(3))) == []

    def test_one_row_closed_form_equals_elimination(self, rng):
        closed = 0
        for _ in range(2000):
            q = [rng.choice((0, 0, 1, -1, 2, -2, 3, -4, 6)) for _ in range(rng.randint(1, 8))]
            M = IntMatrix.from_rows([q])
            assert kernel_basis(M) == _kernel(*_factor(M.to_columns())), q
            first = next((e for e in q if e), 0)
            closed += bool(first) and all(e % first == 0 for e in q)
        assert 300 < closed < 1700

    def test_randomized_saturation(self, rng):
        # K is the canonical basis of the saturated kernel: a saturated
        # lattice inside the kernel with the kernel's rank is the kernel, and
        # a lattice has one basis of the canonical shape
        for _ in range(80):
            rows = rng.randint(0, 4)
            cols = rng.randint(0, 5)
            M = random_matrix(rng, rows, cols)
            K = kernel_basis(M)
            assert is_zero(ref.matmul(M.to_rows(), ref.from_columns(K, cols)))
            assert ref.is_saturated_basis(ref.from_columns(K, cols))
            r = ref.rank(M.to_rows())
            assert rank(M) == r
            assert len(K) == cols - r
            assert is_canonical(K)


class TestQuotient:
    def test_torsion(self):
        with pytest.raises(ValueError, match=r"Smith invariants \(2,\)"):
            quotient(IntMatrix.from_columns([[2, 0]]))

    def test_free(self):
        sec = check_quotient(IntMatrix.from_columns([[4, -4, 1]]))
        assert sec is not None and len(sec) == 2

    def test_quick_example_composite(self):
        # kernel lattice of [[1,-1,-8]] modulo (D,-D) = (4,-4,1): the free
        # generator lifts to (1, 1, 0), the class (H, pi* H).
        K = IntMatrix.from_columns(kernel_basis(IntMatrix.from_rows([[1, -1, -8]])), rows=3)
        w = solve_exact(K, (4, -4, 1))
        assert w is not None
        (sec,) = check_quotient(IntMatrix.from_columns([list(w)]))
        assert K.mul_vector(sec) == (1, 1, 0)

    def test_rank_bound_random(self, rng):
        checked = raised = 0
        for _ in range(40):
            n = rng.randint(1, 5)
            k = rng.randint(0, 4)
            R = random_matrix(rng, n, k, bound=6)
            sec = check_quotient(R)
            checked += sec is not None
            raised += sec is None
        assert checked and raised

    def test_ambient_rank_is_the_row_count(self):
        # no relation to read it from: Z^3 modulo nothing is Z^3 itself
        assert quotient(IntMatrix(3, 0, [])) == ref.identity(3)
        assert quotient(IntMatrix(0, 0, [])) == []

    def test_quotient_section_is_reduced_inverse(self, rng):
        # The section lifts a basis of the quotient (``check_quotient``), so
        # it is the trailing columns of U^-1 for some Smith transform U.  Each
        # column is reduced: at every pivot of the relation lattice's HNF, read
        # from the reference's leading-block minors, it lies in [0, pivot).
        checked = raised = 0
        for _ in range(120):
            n, k = rng.randint(1, 5), rng.randint(0, 4)
            R = random_matrix(rng, n, k, bound=rng.choice((1, 3, 6)))
            if k and rng.random() < 0.5:
                # scale one column to force torsion more often
                cols = R.to_columns()
                cols[0] = [rng.choice((2, 3)) * e for e in cols[0]]
                R = IntMatrix.from_columns(cols, rows=n)
            sec = check_quotient(R)
            if sec is None:
                raised += 1
                continue
            checked += 1
            pivots = ref.hnf_pivots(R.to_columns(), n)
            assert len(pivots) == n - len(sec)
            for col in sec:
                assert all(0 <= col[p] < h for p, h in pivots), (R, col)
        assert checked and raised


class TestRank:
    def test_examples(self):
        assert rank(IntMatrix(0, 0, [])) == 0
        assert rank(IntMatrix(3, 0, [])) == rank(IntMatrix(0, 3, [])) == 0
        assert rank(IntMatrix.from_rows([[2, 4], [1, 2]])) == 1
        assert rank(IntMatrix.from_rows([[2, 4, 6]])) == 1
        assert rank(IntMatrix.from_columns([[2, 4, 6]])) == 1

    def test_against_hermite_row_count(self, rng):
        # square, wide, tall and singular inputs, read from either side,
        # against the size of the largest nonzero minor
        for _ in range(300):
            M = singular_or_not(rng, rng.randint(0, 6), rng.randint(0, 6))
            transposed = IntMatrix.from_columns(M.to_rows(), rows=M.cols)
            assert rank(M) == ref.rank(M.to_rows()) == len(hermite_row_form(M)) == rank(transposed)


class TestSolveAndHermite:
    def test_solve_prefers_small_pivots(self):
        assert solve_exact(IntMatrix.from_rows([[1, 5]]), [1]) == (1, 0)
        assert solve_exact(IntMatrix.from_rows([[4, 1]]), [4]) == (0, 4)

    def test_solve_none_when_unsolvable(self):
        assert solve_exact(IntMatrix.from_rows([[2, 4]]), [3]) is None

    def test_solve_random(self, rng):
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            M = random_matrix(rng, rows, cols, bound=5)
            x = tuple(rng.randint(-4, 4) for _ in range(cols))
            b = M.mul_vector(x)
            sol = solve_exact(M, b)
            assert sol is not None
            assert M.mul_vector(sol) == b

    def test_hermite_transform(self, rng):
        for _ in range(30):
            M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            H_rows, T_rows = _factor(M.to_rows())
            assert abs(ref.det(T_rows)) == 1
            TM = ref.matmul(T_rows, M.to_rows())
            assert TM[: len(H_rows)] == H_rows
            assert is_zero(TM[len(H_rows) :])

    def test_hermite_shape_and_uniqueness(self, rng):
        # the row-HNF depends only on the row lattice, so U M has the same one
        for _ in range(150):
            M = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 6))
            H = hermite_row_form(M)
            assert ref.is_hnf(H)
            assert ref.same_lattice(ref.from_columns(H, M.cols), M.to_columns())
            UM = times(random_unimodular(rng, M.rows), M.to_rows())
            assert hermite_row_form(IntMatrix.from_rows(UM, cols=M.cols)) == H

    def test_lattice_intersection(self):
        A = IntMatrix.from_rows([[1, 5]])
        B = IntMatrix.from_rows([[1, 3]])
        assert intersect_column_lattices(A, B) == [[1]]
        assert intersect_column_lattices(
            IntMatrix.from_rows([[4]]), IntMatrix.from_rows([[4, 1]])
        ) == [[4]]

    def test_lattice_intersection_random(self, rng):
        for _ in range(20):
            n = rng.randint(1, 3)
            A = random_matrix(rng, n, rng.randint(1, 3), bound=4)
            B = random_matrix(rng, n, rng.randint(1, 3), bound=4)
            for u in intersect_column_lattices(A, B):
                assert solve_exact(A, u) is not None
                assert solve_exact(B, u) is not None


class TestFiberProduct:
    def test_degree_rows(self):
        diag, vert1, vert2 = fiber_product(
            IntMatrix.from_rows([[4]]), IntMatrix.from_rows([[4, 1]])
        )
        assert (diag, vert1, vert2) == ([(1, 0, 4)], [], [(0, 1, -4)])

    def test_random_against_stacked_kernel(self, rng):
        # Oracle: {(x, y) : A x = B y} is the kernel of (A | -B).  Vectors of
        # that kernel, as many as its rank, spanning a saturated lattice, are
        # a basis of it.
        for _ in range(60):
            n = rng.randint(1, 3)
            A = random_matrix(rng, n, rng.randint(1, 3), bound=4)
            B = random_matrix(rng, n, rng.randint(1, 3), bound=4)
            diag, vert1, vert2 = fiber_product(A, B)
            vecs = diag + vert1 + vert2
            for v in vecs:
                assert A.mul_vector(v[: A.cols]) == B.mul_vector(v[A.cols :])
            assert all(not any(v[A.cols :]) for v in vert1)
            assert all(not any(v[: A.cols]) for v in vert2)
            stacked = ref.augment(A.to_rows(), ref.neg(B.to_rows()))
            K = ref.from_columns(vecs, A.cols + B.cols)
            assert is_zero(ref.matmul(stacked, K))
            assert len(vecs) == A.cols + B.cols - ref.rank(stacked)
            assert ref.is_saturated_basis(K)

    @staticmethod
    def _pair(rng, n):
        """Random A, B with n rows: some zero, some with repeated columns."""
        def side():
            if rng.random() < 0.1:
                cols = rng.randint(1, 6)
                return IntMatrix(n, cols, [0] * (n * cols))
            bound, cols = rng.randint(0, 9), []
            for _ in range(rng.randint(1, 6)):
                if cols and rng.random() < 0.3:
                    cols.append(rng.choice(cols))
                else:
                    cols.append([rng.randint(-bound, bound) for _ in range(n)])
            return IntMatrix.from_columns(cols, rows=n)

        return side(), side()

    def test_bit_for_bit_against_composition(self, rng):
        # fiber_product factors each map once; its output must equal the
        # composition of the public solve, kernel and intersection calls
        for _ in range(600):
            A, B = self._pair(rng, rng.randint(1, 5))
            diag = [
                sign_normalize_column(solve_exact(A, u) + solve_exact(B, u))
                for u in intersect_column_lattices(A, B)
            ]
            za, zb = (0,) * A.cols, (0,) * B.cols
            vert1 = [sign_normalize_column(tuple(k) + zb) for k in kernel_basis(A)]
            vert2 = [sign_normalize_column(za + tuple(k)) for k in kernel_basis(B)]
            assert fiber_product(A, B) == (diag, vert1, vert2)

    def test_intersection_depends_only_on_the_lattices(self, rng):
        # other generators of each lattice: a unimodular change of the
        # columns and one more column that is a combination of them
        def regenerate(M):
            M = IntMatrix.from_rows(times(M.to_rows(), random_unimodular(rng, M.cols)), cols=M.cols)
            extra = [rng.randint(-2, 2) for _ in range(M.cols)]
            return IntMatrix.from_columns(M.to_columns() + [M.mul_vector(extra)], rows=M.rows)

        for _ in range(300):
            A, B = self._pair(rng, rng.randint(1, 5))
            L = intersect_column_lattices(A, B)
            assert intersect_column_lattices(regenerate(A), regenerate(B)) == L
