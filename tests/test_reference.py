"""The reference algebra of ``reference.py`` on hand-computed cases."""

import itertools

import reference as ref


def leibniz_det(M):
    """The permutation expansion, against which the Bareiss determinant is checked."""
    n, total = len(M), 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total


def test_products_and_shapes():
    A = [[1, 2], [3, 4], [5, 6]]
    assert ref.identity(2) == [[1, 0], [0, 1]] and ref.identity(0) == []
    assert ref.transpose(A) == [[1, 3, 5], [2, 4, 6]]
    assert ref.from_columns([(1, 3, 5), (2, 4, 6)], 3) == A
    assert ref.from_columns([], 2) == [[], []]
    assert ref.matmul(A, [[1, 0, -1], [0, 1, 2]]) == [[1, 2, 3], [3, 4, 5], [5, 6, 7]]
    assert ref.matmul(A, ref.identity(2)) == A
    assert ref.matmul([[], []], []) == [[], []]  # 2 x 0 times 0 x 0
    assert ref.augment(A, [[7], [8], [9]]) == [[1, 2, 7], [3, 4, 8], [5, 6, 9]]
    assert ref.neg(A) == [[-1, -2], [-3, -4], [-5, -6]]


def test_det():
    assert ref.det([]) == 1
    assert ref.det([[-7]]) == -7
    assert ref.det([[2, 4], [6, 8]]) == -8
    assert ref.det([[0, 1], [1, 0]]) == -1  # a zero pivot: one swap
    assert ref.det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert ref.det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert ref.det([[2, 0, 0], [0, 3, 0], [0, 0, 0]]) == 0
    assert ref.det([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 2]]) == 1


def test_det_against_leibniz(rng):
    for _ in range(300):
        n = rng.randint(1, 5)
        M = [[rng.choice((0, 0, 1, -1, 2, -3, 7)) for _ in range(n)] for _ in range(n)]
        assert ref.det(M) == leibniz_det(M), M


def test_minors_and_rank():
    M = [[2, 4, 6], [1, 2, 3]]  # rank 1, content 1
    assert [ref.minors_gcd(M, k) for k in range(4)] == [1, 1, 0, 0]
    assert ref.rank(M) == 1
    N = [[2, 0], [0, 6], [4, 6]]
    # 2x2 minors 12, 12, -24
    assert [ref.minors_gcd(N, k) for k in range(3)] == [1, 2, 12]
    assert ref.rank(N) == 2
    assert ref.rank([]) == ref.rank([[], []]) == ref.rank([[0, 0]]) == 0


def test_smith_invariants():
    assert ref.smith_invariants([[2, 4], [6, 8]]) == (2, 4)
    assert ref.smith_invariants([[2, 0], [0, 3]]) == (1, 6)
    assert ref.smith_invariants([[2, 0], [0, 6], [4, 6]]) == (2, 6)
    assert ref.smith_invariants([[0, 0]]) == ()
    assert ref.smith_invariants([[4, -4, 1]]) == (1,)


def test_saturation_and_spanning():
    assert ref.is_saturated_basis([[1, 8], [1, 0], [0, 1]])  # kernel of (1, -1, -8)
    assert not ref.is_saturated_basis([[2], [4]])  # 2 (1, 2)
    assert not ref.is_saturated_basis([[1, 2], [1, 2]])  # dependent columns
    assert ref.is_saturated_basis([[], []])  # the empty basis
    assert ref.spans([[2, 3]]) and not ref.spans([[2, 4]])
    assert ref.spans([[1, 0, 1], [0, 1, 1]])
    assert not ref.spans([[1, 1], [1, -1]])  # index 2
    assert ref.spans([]) and not ref.spans([[], []])


def test_same_lattice():
    assert ref.same_lattice([[1, 0], [0, 1]], [[2, 1], [1, 1]])  # det 1
    assert not ref.same_lattice([[1, 0], [0, 1]], [[2, 0], [0, 1]])  # index 2
    assert ref.same_lattice([[2], [4]], [[2, 4, -2], [4, 8, -4]])
    assert not ref.same_lattice([[1], [2]], [[2], [4]])
    assert not ref.same_lattice([[1], [0]], [[0], [1]])  # same rank and d_1
    assert ref.same_lattice([[], []], [[0], [0]])


def test_hnf_pivots():
    # span (2, 1): HNF row (2, 1), one pivot 2 at coordinate 0
    assert ref.hnf_pivots([(2, 1)], 2) == [(0, 2)]
    # (2, 1, 0), (0, 1, 1) has HNF rows (2, 0, -1), (0, 1, 1)
    assert ref.hnf_pivots([(2, 1, 0), (0, 1, 1)], 3) == [(0, 2), (1, 1)]
    # (0, 2, 1), (0, 0, 3), (0, 4, 0): HNF rows (0, 2, 0), (0, 0, 1)
    assert ref.hnf_pivots([(0, 2, 1), (0, 0, 3), (0, 4, 0)], 3) == [(1, 2), (2, 1)]
    assert ref.hnf_pivots([(0, 2, 1), (0, 0, 2)], 3) == [(1, 2), (2, 2)]
    assert ref.hnf_pivots([], 3) == [] and ref.hnf_pivots([(0, 0)], 2) == []


def test_is_hnf():
    assert ref.is_hnf([[2, 0, -1], [0, 1, 1]])
    assert ref.is_hnf([]) and ref.is_hnf([[0, 3]])
    assert not ref.is_hnf([[2, 1, 0], [0, 1, 1]])  # 1 above the pivot 1
    assert not ref.is_hnf([[-2, 0]])  # negative pivot
    assert not ref.is_hnf([[0, 1], [1, 0]])  # pivots not strictly to the right
    assert not ref.is_hnf([[1, 0], [0, 0]])  # a zero row
    assert not ref.is_hnf([[1, -1], [0, 3]])  # -1 above the pivot 3
