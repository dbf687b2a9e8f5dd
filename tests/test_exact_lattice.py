"""The exact lattice engine, checked against the naive algebra of ``reference.py``.

The oracles share no code with ``exact_lattice``: products, determinants,
ranks, Smith invariants, saturation and lattice equality all come from
``reference``'s minors.  The pinned digests and the byte-for-byte tests of
one engine path against another check canonical bytes, which a lattice
oracle does not fix.
"""

import hashlib
import random

import pytest

from cy_smoother.exact_lattice import (
    fiber_product,
    hermite_row_form,
    intersect_column_lattices,
    kernel_basis,
    quotient,
    rank,
    sign_normalize_column,
    smith_normal_form,
    solve_exact,
    _canonical,
    _factor,
    _smith,
)

import reference as ref


def random_matrix(rng, rows, cols, bound=9):
    """A rows x cols matrix as its list of rows (or rows random vectors of length cols)."""
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


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


def check_quotient(relations, n) -> list | None:
    """quotient(relations, n) against its contract: the section, or None when it raised.

    A free quotient's section is n - rank(relations) vectors of Z^n, and
    together with the relations they span Z^n (the gcd of their n x n
    minors is 1), so it maps a basis of Z^n / relations onto the quotient.
    A Smith invariant of 2 or more must raise instead.  Ranks and
    invariants come from ``reference``.
    """
    rows = ref.from_columns(relations, n)
    if any(d >= 2 for d in ref.smith_invariants(rows)):
        with pytest.raises(ValueError, match="has torsion"):
            quotient(relations, n)
        return None
    sec = quotient(relations, n)
    assert len(sec) == n - ref.rank(rows) and all(len(c) == n for c in sec)
    assert ref.spans(ref.augment(rows, ref.from_columns(sec, n)))
    return sec


def singular_or_not(rng, rows, cols):
    """A random matrix, or half the time one whose last row is a combination
    of the others (a zero row when it is the only one), so its rank drops."""
    M = random_matrix(rng, rows, cols, bound=rng.choice((1, 3, 9)))
    if rows and rng.random() < 0.5:
        coeffs = [rng.randint(-2, 2) for _ in M[:-1]]
        M[-1] = [sum(c * r[j] for c, r in zip(coeffs, M)) for j in range(cols)]
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
        assert smith_normal_form(rows, len(rows[0])) == (U, S, V)

    def test_carried_inverse(self, rng):
        # _smith's W holds the columns of U^-1 for a Smith form S = U M V:
        # without companion rows it reaches the same S, and W S = M V with
        # |det W| = 1, by the reference's product and determinant
        for _ in range(150):
            bound = rng.choice((1, 4, 50))
            n, m = rng.randint(0, 6), rng.randint(0, 6)
            M = random_matrix(rng, n, m, bound=bound)
            _, S, V = smith_normal_form(M, m)
            R = [list(r) for r in M]
            W = _smith(R, n, m)
            assert R == S
            inverse = ref.from_columns(W, n)
            assert abs(ref.det(inverse)) == 1
            assert ref.matmul(inverse, S) == ref.matmul(M, V)

    def test_digest_of_transforms_and_sections(self):
        # (U, S, V) and the quotient's section (or its torsion error) of 2000
        # seeded matrices, shapes 0-7 x 0-7, entry bound cycling 1, 3, 9, 1000,
        # 30% zeros, each result hashed as the plain lists it is.  The hex was
        # taken with this code against the engine of commit f666361 (called
        # through its matrix type), whose results had not moved since commit
        # b6044b0, which kept U and inverted it with a full HNF.
        gen = random.Random(20261019)
        digest = hashlib.sha256()
        for k in range(2000):
            n, m, bound = gen.randint(0, 7), gen.randint(0, 7), (1, 3, 9, 1000)[k % 4]
            M = [[0 if gen.random() < 0.3 else gen.randint(-bound, bound) for _ in range(m)]
                 for _ in range(n)]
            try:
                section = quotient(ref.from_columns(M, m), n)
            except ValueError as exc:
                section = str(exc)
            digest.update(repr((*smith_normal_form(M, m), section)).encode())
        assert digest.hexdigest() == (
            "6eb9052e5889fe9e2030e991e8d5b8fdaaaa055f782fe1e4ca0b49e2e48d39e3"
        )

    def test_digest_of_kernels_solutions_and_intersections(self):
        # kernel_basis, solve_exact (of an image vector and of an arbitrary
        # one), intersect_column_lattices, fiber_product and hermite_row_form
        # of 2000 seeded pairs M, N with one row count, shapes 0-7, entry
        # bound cycling 1, 3, 9, 1000, 30% zeros, each result hashed as the
        # plain value it is.  The hex was taken with this code against the
        # engine of commit f666361 (called through its matrix type), whose
        # results had not moved since commit daf7075, whose factorizations
        # ran the full HNF.
        gen = random.Random(20261019)

        def matrix(n, m, bound):
            return [[0 if gen.random() < 0.3 else gen.randint(-bound, bound) for _ in range(m)]
                    for _ in range(n)]

        digest = hashlib.sha256()
        for k in range(2000):
            bound = (1, 3, 9, 1000)[k % 4]
            n, m, p = gen.randint(0, 7), gen.randint(0, 7), gen.randint(0, 7)
            M, N = matrix(n, m, bound), matrix(n, p, bound)
            x = [gen.randint(-bound, bound) for _ in range(m)]
            b = [gen.randint(-bound, bound) for _ in range(n)]
            A, B = ref.from_columns(M, m), ref.from_columns(N, p)
            outputs = (
                kernel_basis(A),
                solve_exact(A, ref.combination(A, x, n)),
                solve_exact(A, b),
                intersect_column_lattices(A, B),
                fiber_product(A, B),
                hermite_row_form(M),
            )
            digest.update(repr(outputs).encode())
        assert digest.hexdigest() == (
            "bf0c88101d0d9b23acdc016fc8d49bbfd225c3a0417b654e90b24d0c456fe114"
        )

    def test_identity(self):
        U, S, V = smith_normal_form(ref.identity(2), 2)
        assert S == ref.identity(2) and times(U, ref.identity(2), V) == S

    def test_zero(self):
        Z = [[0] * 3 for _ in range(2)]
        U, S, V = smith_normal_form(Z, 3)
        assert S == Z
        assert abs(ref.det(U)) == 1 and abs(ref.det(V)) == 1

    def test_2x2_example(self):
        M = [[2, 4], [6, 8]]
        U, S, V = smith_normal_form(M, 2)
        assert S == [[2, 0], [0, 4]]
        assert times(U, M, V) == S
        # |det| preserved through unimodular transforms
        assert abs(ref.det(S)) == abs(ref.det(M)) == 8

    def test_randomized_contract(self, rng):
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            M = random_matrix(rng, rows, cols)
            U, S, V = smith_normal_form(M, cols)
            assert times(U, M, V) == S
            assert abs(ref.det(U)) == 1
            assert abs(ref.det(V)) == 1
            diag = [S[t][t] for t in range(min(rows, cols))]
            assert tuple(d for d in diag if d) == ref.smith_invariants(M)
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
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            M = random_matrix(rng, n, m)
            oracle = invariant_factors(sympy.Matrix(M), domain=sympy.ZZ)
            _, S, _ = smith_normal_form(M, m)
            diag = (S[t][t] for t in range(min(n, m)))
            assert tuple(d for d in diag if d) == tuple(abs(int(d)) for d in oracle if d)


class TestKernelBasis:
    # a map is passed as its columns: the row (1, -1) is the columns [1], [-1]
    def test_single_relation(self):
        assert kernel_basis([[1], [-1]]) == [[1, 1]]

    def test_quick_example_relation(self):
        assert kernel_basis([[1], [-1], [-8]]) == [[1, 1, 0], [8, 0, 1]]

    def test_full_rank(self):
        assert kernel_basis(ref.identity(3)) == []

    def test_one_row_closed_form_equals_elimination(self, rng):
        closed = 0
        for _ in range(2000):
            q = [rng.choice((0, 0, 1, -1, 2, -2, 3, -4, 6)) for _ in range(rng.randint(1, 8))]
            A = [[e] for e in q]
            H, T = _factor([list(c) for c in A])
            assert kernel_basis(A) == _canonical(T[len(H) :]), q
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
            K = kernel_basis(ref.from_columns(M, cols))
            assert is_zero(ref.matmul(M, ref.from_columns(K, cols)))
            assert ref.is_saturated_basis(ref.from_columns(K, cols))
            r = ref.rank(M)
            assert rank(M) == r
            assert len(K) == cols - r
            assert is_canonical(K)


class TestQuotient:
    def test_torsion(self):
        with pytest.raises(ValueError, match=r"Smith invariants \(2,\)"):
            quotient([[2, 0]], 2)

    def test_free(self):
        sec = check_quotient([[4, -4, 1]], 3)
        assert sec is not None and len(sec) == 2

    def test_quick_example_composite(self):
        # kernel lattice of [[1,-1,-8]] modulo (D,-D) = (4,-4,1): the free
        # generator lifts to (1, 1, 0), the class (H, pi* H).
        K = kernel_basis([[1], [-1], [-8]])
        w = solve_exact(K, (4, -4, 1))
        assert w is not None
        (sec,) = check_quotient([list(w)], len(K))
        assert ref.combination(K, sec, 3) == [1, 1, 0]

    def test_rank_bound_random(self, rng):
        checked = raised = 0
        for _ in range(40):
            n = rng.randint(1, 5)
            k = rng.randint(0, 4)
            R = random_matrix(rng, n, k, bound=6)
            sec = check_quotient(ref.from_columns(R, k), n)
            checked += sec is not None
            raised += sec is None
        assert checked and raised

    def test_ambient_rank_is_the_row_count(self):
        # no relation to read it from: Z^3 modulo nothing is Z^3 itself
        assert quotient([], 3) == ref.identity(3)
        assert quotient([], 0) == []

    def test_quotient_section_is_reduced_inverse(self, rng):
        # The section lifts a basis of the quotient (``check_quotient``), so
        # it is the trailing columns of U^-1 for some Smith transform U.  Each
        # column is reduced: at every pivot of the relation lattice's HNF, read
        # from the reference's leading-block minors, it lies in [0, pivot).
        checked = raised = 0
        for _ in range(120):
            n, k = rng.randint(1, 5), rng.randint(0, 4)
            relations = ref.from_columns(random_matrix(rng, n, k, bound=rng.choice((1, 3, 6))), k)
            if k and rng.random() < 0.5:
                # scale one relation to force torsion more often
                relations[0] = [rng.choice((2, 3)) * e for e in relations[0]]
            sec = check_quotient(relations, n)
            if sec is None:
                raised += 1
                continue
            checked += 1
            pivots = ref.hnf_pivots(relations, n)
            assert len(pivots) == n - len(sec)
            for col in sec:
                assert all(0 <= col[p] < h for p, h in pivots), (relations, col)
        assert checked and raised


class TestRank:
    def test_examples(self):
        assert rank([]) == 0
        assert rank([[], [], []]) == rank([[0, 0, 0]]) == 0
        assert rank([[2, 4], [1, 2]]) == 1
        assert rank([[2, 4, 6]]) == 1
        assert rank([[2], [4], [6]]) == 1

    def test_against_hermite_row_count(self, rng):
        # square, wide, tall and singular inputs, read from either side,
        # against the size of the largest nonzero minor
        for _ in range(300):
            n, m = rng.randint(0, 6), rng.randint(0, 6)
            M = singular_or_not(rng, n, m)
            transposed = ref.from_columns(M, m)
            assert rank(M) == ref.rank(M) == len(hermite_row_form(M)) == rank(transposed)


class TestSolveAndHermite:
    def test_solve_prefers_small_pivots(self):
        assert solve_exact([[1], [5]], [1]) == (1, 0)
        assert solve_exact([[4], [1]], [4]) == (0, 4)

    def test_solve_none_when_unsolvable(self):
        assert solve_exact([[2], [4]], [3]) is None

    def test_lengths_must_match(self):
        # b against the columns, and the two sides of an intersection
        with pytest.raises(ValueError, match=r"^vectors of unequal length: \[1, 2\]$"):
            solve_exact([[1, 0], [0, 1]], [1])
        with pytest.raises(ValueError, match=r"^vectors of unequal length: \[1, 2\]$"):
            intersect_column_lattices([[1, 0]], [[1]])
        with pytest.raises(ValueError, match=r"^vectors of unequal length: \[1, 2\]$"):
            fiber_product([[1, 0]], [[1]])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: smith_normal_form([[1, 2, 3]], 2),
            lambda: smith_normal_form([[1, 2], [3]], 2),
            lambda: quotient([[1, 2, 3]], 2),
            lambda: quotient([[1]], 2),
            lambda: kernel_basis([[1], [2, 3]]),
            lambda: kernel_basis([[1, 2], [3]]),
            lambda: solve_exact([[1, 2], [3]], [1, 2]),
            lambda: fiber_product([[1, 2], [3]], [[1, 0]]),
            lambda: fiber_product([[1, 0]], [[1, 2], [3]]),
            lambda: intersect_column_lattices([[1, 0]], [[1, 0], [1]]),
            lambda: hermite_row_form([[1, 2], [3]]),
            lambda: rank([[1, 2], [3, 4], [5]]),
            lambda: rank([[1, 2, 3], [4]]),
        ],
        ids=["snf-long-row", "snf-short-row", "quotient-long", "quotient-short",
             "kernel-one-row", "kernel", "solve", "fiber-a", "fiber-b", "intersect",
             "hermite", "rank-tall", "rank-wide"],
    )
    def test_unequal_lengths_raise(self, call):
        with pytest.raises(ValueError, match="^vectors of unequal length: "):
            call()

    def test_solve_random(self, rng):
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            M = random_matrix(rng, rows, cols, bound=5)
            x = tuple(rng.randint(-4, 4) for _ in range(cols))
            A = ref.from_columns(M, cols)
            b = ref.combination(A, x, rows)
            sol = solve_exact(A, b)
            assert sol is not None
            assert ref.combination(A, sol, rows) == b

    def test_hermite_transform(self, rng):
        for _ in range(30):
            M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            H_rows, T_rows = _factor([list(r) for r in M])  # eliminates its argument in place
            assert abs(ref.det(T_rows)) == 1
            TM = ref.matmul(T_rows, M)
            assert TM[: len(H_rows)] == H_rows
            assert is_zero(TM[len(H_rows) :])

    def test_hermite_shape_and_uniqueness(self, rng):
        # the row-HNF depends only on the row lattice, so U M has the same one
        for _ in range(150):
            n, m = rng.randint(0, 5), rng.randint(0, 6)
            M = random_matrix(rng, n, m)
            H = hermite_row_form(M)
            assert ref.is_hnf(H)
            assert ref.same_lattice(ref.from_columns(H, m), ref.from_columns(M, m))
            assert hermite_row_form(times(random_unimodular(rng, n), M)) == H

    def test_lattice_intersection(self):
        assert intersect_column_lattices([[1], [5]], [[1], [3]]) == [[1]]
        assert intersect_column_lattices([[4]], [[4], [1]]) == [[4]]

    def test_lattice_intersection_random(self, rng):
        # A and B: one to three random vectors in Z^n each
        for _ in range(20):
            n = rng.randint(1, 3)
            A = random_matrix(rng, rng.randint(1, 3), n, bound=4)
            B = random_matrix(rng, rng.randint(1, 3), n, bound=4)
            for u in intersect_column_lattices(A, B):
                assert solve_exact(A, u) is not None
                assert solve_exact(B, u) is not None


class TestFiberProduct:
    def test_degree_rows(self):
        # the rows (4) and (4, 1), as their columns
        diag, vert1, vert2 = fiber_product([[4]], [[4], [1]])
        assert (diag, vert1, vert2) == ([(1, 0, 4)], [], [(0, 1, -4)])

    def test_random_against_stacked_kernel(self, rng):
        # Oracle: {(x, y) : A x = B y} is the kernel of (A | -B).  Vectors of
        # that kernel, as many as its rank, spanning a saturated lattice, are
        # a basis of it.
        for _ in range(60):
            n = rng.randint(1, 3)
            A = random_matrix(rng, rng.randint(1, 3), n, bound=4)
            B = random_matrix(rng, rng.randint(1, 3), n, bound=4)
            a, b = len(A), len(B)
            A_rows, B_rows = ref.from_columns(A, n), ref.from_columns(B, n)
            diag, vert1, vert2 = fiber_product(A, B)
            vecs = diag + vert1 + vert2
            for v in vecs:
                assert ref.combination(A, v[:a], n) == ref.combination(B, v[a:], n)
            assert all(not any(v[a:]) for v in vert1)
            assert all(not any(v[:a]) for v in vert2)
            stacked = ref.augment(A_rows, ref.neg(B_rows))
            K = ref.from_columns(vecs, a + b)
            assert is_zero(ref.matmul(stacked, K))
            assert len(vecs) == a + b - ref.rank(stacked)
            assert ref.is_saturated_basis(K)

    @staticmethod
    def _pair(rng, n):
        """Random A, B in Z^n, as columns: some zero, some with repeated columns."""
        def side():
            if rng.random() < 0.1:
                return [[0] * n for _ in range(rng.randint(1, 6))]
            bound, cols = rng.randint(0, 9), []
            for _ in range(rng.randint(1, 6)):
                if cols and rng.random() < 0.3:
                    cols.append(rng.choice(cols))
                else:
                    cols.append([rng.randint(-bound, bound) for _ in range(n)])
            return cols

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
            za, zb = (0,) * len(A), (0,) * len(B)
            vert1 = [sign_normalize_column(tuple(k) + zb) for k in kernel_basis(A)]
            vert2 = [sign_normalize_column(za + tuple(k)) for k in kernel_basis(B)]
            assert fiber_product(A, B) == (diag, vert1, vert2)

    def test_intersection_depends_only_on_the_lattices(self, rng):
        # other generators of each lattice: a unimodular change of the
        # columns and one more column that is a combination of them
        def regenerate(A, n):
            rows = times(ref.from_columns(A, n), random_unimodular(rng, len(A)))
            extra = [rng.randint(-2, 2) for _ in A]
            cols = ref.from_columns(rows, len(A))
            return cols + [ref.combination(cols, extra, n)]

        for _ in range(300):
            n = rng.randint(1, 5)
            A, B = self._pair(rng, n)
            L = intersect_column_lattices(A, B)
            assert intersect_column_lattices(regenerate(A, n), regenerate(B, n)) == L
