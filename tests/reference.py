"""Naive integer matrix algebra: the tests' oracle for ``cy_smoother.exact_lattice``.

Nothing here is shared with the package, and nothing is imported from it
(``test_imports.py`` checks this), so a bug in the engine's elimination
cannot pass on both sides of a comparison.  A matrix is a list of rows of
ints; an n x 0 matrix is n empty rows, and a 0 x m one is ``[]``.

Every lattice fact is read from determinantal divisors: d_k(M), the gcd of
all k x k minors of M, with d_0 = 1.  Each minor is a fraction-free
Bareiss determinant (Bareiss, Math. Comp. 22, 1968).  From them:

* the rank is the largest k with d_k != 0;
* the nonzero Smith invariants are d_k / d_(k-1), k = 1 .. rank;
* r columns of rank r are a basis of a saturated lattice iff d_r = 1;
* the columns of an n-row matrix span Z^n iff d_n = 1;
* a lattice L of rank r, spanned by the columns of M, has index d_r(M) in
  its saturation, so two sets of columns span the same lattice iff they
  and their union have one rank r and one d_r;
* the pivots of the row-style Hermite normal form of the lattice spanned
  by some vectors sit at the coordinates c where the rank s of the leading
  coordinates 0..c goes up, and the pivot there is d_s of the block of
  coordinates 0..c over d_(s-1) of the block 0..c-1: an echelon basis's
  s-th row is (0, .., 0, pivot) on 0..c, and expanding a maximal minor
  along it leaves a maximal minor of the block 0..c-1.

Minors are enumerated exhaustively: keep to matrices of about 6 x 8.
"""

from itertools import combinations
from math import gcd


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def from_columns(vectors, n):
    """The n-row matrix whose columns are the vectors."""
    return [[v[i] for v in vectors] for i in range(n)]


def transpose(M):
    """The transpose of M, which must have at least one row."""
    return [list(c) for c in zip(*M)]


def matmul(A, B):
    """A B, schoolbook; B has at least one row unless A has no columns or rows."""
    cols = len(B[0]) if B else 0
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(cols)] for row in A]


def combination(vectors, coeffs, n):
    """M c for the n-row matrix M whose columns are the vectors: the sum of c_j v_j."""
    return [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(n)]


def augment(A, B):
    """(A | B): the rows of A and B side by side."""
    return [list(a) + list(b) for a, b in zip(A, B)]


def neg(M):
    return [[-e for e in row] for row in M]


def det(M):
    """Determinant of a square matrix by fraction-free (Bareiss) elimination."""
    A = [list(row) for row in M]
    n, sign, prev = len(A), 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact: the previous pivot divides every 2 x 2 minor here
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1] if n else 1


def minors_gcd(M, k):
    """d_k(M): the gcd of all k x k minors of M (1 for k = 0, 0 if none is nonzero)."""
    cols = len(M[0]) if M else 0
    g = 0
    for I in combinations(range(len(M)), k):
        for J in combinations(range(cols), k):
            g = gcd(g, det([[M[i][j] for j in J] for i in I]))
            if g == 1:
                return 1
    return g


def rank(M):
    """The size of the largest nonzero minor of M."""
    k = 0
    while minors_gcd(M, k + 1):
        k += 1
    return k


def smith_invariants(M):
    """The nonzero Smith invariants of M, d_k / d_(k-1), in chain order."""
    d = [1]
    while True:
        g = minors_gcd(M, len(d))
        if not g:
            return tuple(b // a for a, b in zip(d, d[1:]))
        d.append(g)


def is_saturated_basis(M):
    """True iff the columns of M are independent and span a saturated lattice."""
    cols = len(M[0]) if M else 0
    return minors_gcd(M, cols) == 1


def spans(M):
    """True iff the columns of M span Z^n, n the row count of M."""
    return minors_gcd(M, len(M)) == 1


def same_lattice(A, B):
    """True iff the columns of A and of B (one row count) span the same lattice."""
    AB = augment(A, B)
    r = rank(AB)
    return rank(A) == rank(B) == r and minors_gcd(A, r) == minors_gcd(B, r) == minors_gcd(AB, r)


def hnf_pivots(vectors, n):
    """[(c, h)]: the row-style HNF pivots of the lattice the vectors in Z^n span."""
    pivots, s, d = [], 0, 1  # d: d_s of the leading block before c
    for c in range(n):
        block = [list(v[: c + 1]) for v in vectors]
        g = minors_gcd(block, s + 1)
        if g:
            s += 1
            pivots.append((c, g // d))
        else:
            g = minors_gcd(block, s)
        d = g
    return pivots


def is_hnf(rows):
    """True iff the rows are in row-style Hermite normal form.

    Each row's first nonzero entry is positive and strictly right of the
    one above, and every entry above a pivot lies in [0, pivot).  The HNF
    of a lattice is unique, so rows of this shape that span a lattice are
    its HNF.
    """
    pivots = []
    for row in rows:
        p = next((j for j, e in enumerate(row) if e), None)
        if p is None or row[p] < 0 or (pivots and p <= pivots[-1]):
            return False
        pivots.append(p)
    return all(0 <= rows[i][p] < rows[k][p] for k, p in enumerate(pivots) for i in range(k))
