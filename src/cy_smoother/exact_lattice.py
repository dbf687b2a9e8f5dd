"""Exact integer linear algebra over finitely generated abelian groups.

Python ints only, no floating point.  Matrices are plain lists of vectors
in and out: a map as its columns, a matrix to normalize as its rows, a
basis as its vectors.  Vectors of unequal length raise ``ValueError``
(``_rows``); an empty list has no length, so ``smith_normal_form`` takes
its column count and ``quotient`` its ambient rank.  Callers make entries
ints where input enters.

One gcd row elimination, ``echelon_rows``, is behind every factorization
and the RG^4 Gram display.  One echelon form with a unimodular transform
per map (``_factor``) gives its saturated kernel, canonical solving and
its image basis; ``fiber_product`` factors each of its two maps once and
intersects their image bases with ``intersect_column_lattices``, which
eliminates the stacked generators once.  Ranks read the echelon form
alone.  The row-style Hermite normal form, ``hermite_row_form``, is taken
only where a canonical basis is read: kernels (``_canonical``) and the
result of an intersection; the kernel of one row whose first nonzero
entry divides the row is that HNF in closed form.  One Smith normal form
elimination, ``_smith``, carries U^-1 along and is behind
``smith_normal_form`` and ``quotient``: a canonical section of the free
quotient of Z^n by a relation lattice, read from U^-1's trailing
columns.  A quotient with torsion raises; every result is modulo
torsion, and both quotients the smoothing takes are by saturated
lattices.  Canonical forms keep repeated runs (and golden tests)
byte-identical.
"""

from __future__ import annotations

from typing import Sequence


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _rows(vectors, length: int | None = None) -> list[list[int]]:
    """The vectors as new lists; a length other than ``length`` (or the first one's) raises."""
    A = [list(v) for v in vectors]
    lengths = set(map(len, A))
    if A and lengths != {len(A[0]) if length is None else length}:
        raise ValueError("vectors of unequal length: %s" % sorted(lengths | {length} - {None}))
    return A


def _smith_pivot(R: list[list[int]], t: int, n: int, m: int) -> tuple[int, int] | None:
    """Position of the first smallest nonzero |entry| of the block R[t:n][t:m].

    Row-major order; the scan stops at the first unit, which no entry can
    undercut.  None when the block is zero.
    """
    best = None
    for i in range(t, n):
        row = R[i]
        for j in range(t, m):
            e = row[j]
            if e and (best is None or abs(e) < best[0]):
                if e == 1 or e == -1:
                    return i, j
                best = (abs(e), i, j)
    return best and best[1:]


def _smith(R: list[list[int]], n: int, m: int) -> list[list[int]]:
    """Bring the first n rows of R, read on their first m indices, to Smith form in place.

    Rows past the n-th are column companions and indices past the m-th are
    row companions: a row operation replaces one of the first n rows whole,
    a column operation updates the indices below m of every row.  With U
    the product of the row operations, the returned rows W are the columns
    of U^-1: each row operation's inverse is applied to W, starting from the
    identity.  The pivot is the first smallest |entry| of the remaining
    block in row-major order (``_smith_pivot``).
    """
    W = _identity_rows(n)
    for t in range(min(n, m)):
        while True:
            pivot = _smith_pivot(R, t, n, m)
            if pivot is None:
                break
            pi, pj = pivot
            R[t], R[pi] = R[pi], R[t]
            W[t], W[pi] = W[pi], W[t]
            if pj != t:
                for r in R:
                    r[t], r[pj] = r[pj], r[t]
            top = R[t]
            dirty = False
            for i in range(t + 1, n):
                if R[i][t]:
                    # R_i -= q R_t, undone on U^-1 by W_t += q W_i
                    q = R[i][t] // top[t]
                    R[i] = [a - q * b for a, b in zip(R[i], top)]
                    W[t] = [a + q * b for a, b in zip(W[t], W[i])]
                    dirty = dirty or R[i][t] != 0
            for j in range(t + 1, m):
                if top[j]:
                    q = top[j] // top[t]
                    for r in R:
                        r[j] -= q * r[t]
                    dirty = dirty or top[j] != 0
            if dirty:
                continue
            if top[t] == 1 or top[t] == -1:
                break  # a unit divides everything
            # divisibility: pivot must divide the rest of the block; else add
            # the first offending row o to the pivot row (W_o -= W_t undoes it)
            # and eliminate again
            o = next((i for i in range(t + 1, n) if any(e % top[t] for e in R[i][t + 1 : m])), None)
            if o is None:
                break
            R[t] = [a + b for a, b in zip(top, R[o])]
            W[o] = [a - b for a, b in zip(W[o], W[t])]
        if R[t][t] < 0:
            R[t] = [-e for e in R[t]]
            W[t] = [-e for e in W[t]]
    return W


def smith_normal_form(rows: Sequence[Sequence[int]], m: int) -> tuple[list[list[int]], ...]:
    """Smith normal form of the n x m matrix M with the given rows: (U, S, V) with S = U*M*V.

    U and V are unimodular, S is diagonal with nonnegative entries in a
    divisibility chain d_i | d_{i+1}.  Total function; deterministic pivot
    choice (smallest absolute value, then lowest position).

    ``_smith`` eliminates on M's n rows, each extended by the matching row
    of U, followed by V's m rows: row operations reach M and U, column
    operations M and V.
    """
    rows = _rows(rows, m)
    n = len(rows)
    R = [[*a, *u] for a, u in zip(rows, _identity_rows(n))] + _identity_rows(m)
    _smith(R, n, m)
    return [r[m:] for r in R[:n]], [r[:m] for r in R[:n]], R[n:]


# ---------------------------------------------------------------------------
# Hermite normal form (row style) and canonical solving
# ---------------------------------------------------------------------------


def echelon_rows(A: list[list[int]], C: list[list[int]]) -> list[int]:
    """Bring the rows A to row-echelon form in place by gcd elimination.

    Pivots come out positive and strictly to the right as rows descend;
    entries above a pivot are left alone.  Every row operation (swap,
    subtraction of a multiple, negation) is applied to the companion rows C
    as well.  Returns the pivot columns; the rows past the last pivot are
    zero.
    """
    n = len(A)
    pivots = []
    prow = 0
    for col in range(len(A[0]) if A else 0):
        if prow == n:
            break
        # gcd-eliminate below prow in this column
        while True:
            # the first smallest |entry|; a unit ends the scan
            piv = None
            for i in range(prow, n):
                e = A[i][col]
                if e and (piv is None or abs(e) < abs(A[piv][col])):
                    piv = i
                    if e == 1 or e == -1:
                        break
            if piv is None:
                break
            if piv != prow:
                A[prow], A[piv] = A[piv], A[prow]
                C[prow], C[piv] = C[piv], C[prow]
            done = True
            for i in range(prow + 1, n):
                if A[i][col]:
                    q = A[i][col] // A[prow][col]
                    A[i] = [a - q * b for a, b in zip(A[i], A[prow])]
                    C[i] = [a - q * b for a, b in zip(C[i], C[prow])]
                    if A[i][col]:
                        done = False
            if done:
                break
        if A[prow][col]:
            if A[prow][col] < 0:
                A[prow] = [-e for e in A[prow]]
                C[prow] = [-e for e in C[prow]]
            pivots.append(col)
            prow += 1
    return pivots


def _echelon(vectors) -> list[list[int]]:
    """The nonzero rows of an echelon form of the given vectors."""
    A = _rows(vectors)
    return A[: len(echelon_rows(A, [[] for _ in A]))]


def hermite_row_form(rows) -> list[list[int]]:
    """The nonzero rows of the row-style Hermite normal form of the given rows.

    Pivots are positive and strictly to the right as rows descend, and the
    entries above a pivot are reduced into [0, pivot).  The elimination
    below a pivot never reads the rows above it, so the upward reduction
    waits until the echelon form is complete.
    """
    A = _rows(rows)
    pivots = echelon_rows(A, [[] for _ in A])
    for prow, col in enumerate(pivots):
        d = A[prow][col]
        for i in range(prow):
            q = A[i][col] // d  # floor brings the entry into [0, d)
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[prow])]
    return A[: len(pivots)]


def rank(vectors) -> int:
    """Rank of the given vectors: the pivot count of an echelon form of the shorter side."""
    A = _rows(vectors)
    return len(_echelon(zip(*A) if A and len(A) > len(A[0]) else A))


def _reduce(v: Sequence[int], rows) -> tuple[list[int], list[int]]:
    """Reduce v modulo echelon rows (nonzero, pivots strictly to the right).

    For each row in turn, v's entry at that row's pivot is taken into
    [0, pivot).  Returns the quotients, one per row, and the remainder.
    """
    v = list(v)
    quotients = []
    for h in rows:
        p = next(i for i, e in enumerate(h) if e)
        q = v[p] // h[p]
        if q:
            v = [a - q * b for a, b in zip(v, h)]
        quotients.append(q)
    return quotients, v


def _canonical(vectors) -> list[list[int]]:
    """Canonical basis of the lattice the vectors span.

    The normal form is the row-HNF computed in reversed coordinate order:
    generators come out "solved for the leading coordinates", which is the
    reduced-echelon shape one writes when solving the defining equations
    by hand (free coordinates carry the identity block).
    """
    return [h[::-1] for h in reversed(hermite_row_form(v[::-1] for v in vectors))]


def _factor(A: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """H = T M^t with T unimodular and H in echelon form, for M with the columns A (overwritten).

    Returns the rows (H, T).  One factorization serves three questions: H's
    rows are a basis of M's image, T's rows past ``len(H)`` span M's
    saturated kernel, and T's first ``len(H)`` rows are preimages of H's.
    No HNF is taken: its upward reduction would replace the first rows of H
    and T by R H and R T, R unit upper-triangular, which keeps the kernel
    rows, the image lattice and every preimage (z H = (z R^-1)(R H)).
    """
    T = _identity_rows(len(A))
    return A[: len(echelon_rows(A, T))], T


def _preimage(H: list[list[int]], T: list[list[int]], b: Sequence[int]) -> tuple[int, ...] | None:
    """Canonical x with M x = b from the factorization (H, T) of M, or None."""
    # b = sum z_j H_j when solvable; a nonexact division leaves a nonzero
    # remainder at its pivot, where the later rows are zero
    z, rest = _reduce(b, H)
    if any(rest):
        return None
    x = [0] * len(T)
    for q, row in zip(z, T):
        if q:
            x = [a + q * t for a, t in zip(x, row)]
    return tuple(x)


def kernel_basis(columns) -> list[list[int]]:
    """Canonical basis of the saturated kernel {x : Mx = 0} of M with the given columns.

    One row q whose first nonzero entry q_k divides every entry has its
    basis in closed form: e_c for c < k and e_c - (q_c / q_k) e_k for
    c > k, in that order.  These span the kernel, each ends in a 1 at its
    own c, and no other vector is nonzero there, so they are the
    reversed-order HNF that ``_canonical`` computes.
    """
    A = _rows(columns)
    if A and len(A[0]) == 1:
        q = [e for (e,) in A]
        k = next((i for i, e in enumerate(q) if e), -1)
        if k >= 0 and all(e % q[k] == 0 for e in q):
            m = len(q)
            basis = []
            for c in range(m):
                if c != k:
                    v = [0] * m
                    v[c], v[k] = 1, -(q[c] // q[k])
                    basis.append(v)
            return basis
    H, T = _factor(A)
    return _canonical(T[len(H) :])


def solve_exact(columns, b: Sequence[int]) -> tuple[int, ...] | None:
    """Canonical particular solution of M x = b for M with the given columns, or None.

    Column-echelon elimination (``_factor``) with free variables set to
    zero; the gcd pivoting prefers small leading coefficients, which keeps
    golden outputs stable.
    """
    return _preimage(*_factor(_rows(columns, len(b))), b)


def intersect_column_lattices(U, V) -> list[list[int]]:
    """Canonical basis of span(U) n span(V) for two lists of vectors in one Z^n: its HNF rows.

    An echelon form of the rows U + (-V), with U and zeros for V carried
    along as companion rows, turns each companion row past the rank into
    the common vector of a kernel relation.  These span the intersection,
    and its HNF depends only on that lattice.
    """
    U = _rows(U)
    V = _rows(V, len(U[0]) if U else None)
    if not U or not V:
        return []
    A = U + [[-e for e in v] for v in V]
    C = U + [[0] * len(U[0]) for _ in V]
    return hermite_row_form(C[len(echelon_rows(A, C)) :])


def fiber_product(A_columns, B_columns):
    """Canonical basis of {(x, y) : A x = B y}, stacked as (x | y), for A and B given by columns.

    Returns (diag, vert1, vert2), each a list of sign-normalized stacked
    vectors: diag pairs the canonical preimages of the canonical basis of
    (image A) n (image B); vert1 and vert2 are the kernels of A and of B,
    padded with zeros on the other side.  A and B are factored once each;
    the intersection is taken of their image bases, which span the same
    lattices as their columns.
    """
    A = _rows(A_columns)
    B = _rows(B_columns, len(A[0]) if A else None)
    zeros_a, zeros_b = (0,) * len(A), (0,) * len(B)
    (HA, TA), (HB, TB) = _factor(A), _factor(B)
    diag = [
        sign_normalize_column(_preimage(HA, TA, u) + _preimage(HB, TB, u))
        for u in intersect_column_lattices(HA, HB)
    ]
    vert1 = [sign_normalize_column(tuple(k) + zeros_b) for k in _canonical(TA[len(HA) :])]
    vert2 = [sign_normalize_column(zeros_a + tuple(k)) for k in _canonical(TB[len(HB) :])]
    return diag, vert1, vert2


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def quotient(relations, n: int) -> list[list[int]]:
    """Canonical section of Z^n modulo the span of the vectors ``relations``.

    The quotient must be free: a Smith invariant above 1 raises
    ``ValueError`` naming the invariants.  The section is a list of
    vectors that lift a basis of the quotient to the ambient lattice, and
    together with the relations they span it.  Each is reduced modulo the
    relation lattice, so the lift is canonical.
    """
    relations = _rows(relations, n)
    # the relations are the columns of the n x k matrix S; no companions:
    # only U^-1's columns are read, not U or V
    S = [[c[i] for c in relations] for i in range(n)]
    inverse_cols = _smith(S, n, len(relations))
    diag = [S[t][t] for t in range(min(n, len(relations))) if S[t][t]]
    if any(d > 1 for d in diag):
        raise ValueError("the quotient has torsion: Smith invariants %r" % (tuple(diag),))
    # canonical representatives: reduce modulo the relation lattice.  Any
    # echelon basis will do: two vectors in [0, pivot) at every pivot that
    # differ by a relation are equal, so the upward reduction is not needed.
    # Last first: kernel_basis orders its classes by the column they end in,
    # and the forward order spreads fill to every row
    rel_basis = _echelon(relations[::-1])
    return [_reduce(c, rel_basis)[1] for c in inverse_cols[len(diag) :]]


def sign_normalize_column(col: Sequence[int]) -> tuple[int, ...]:
    """Flip the sign so the first nonzero coordinate is positive."""
    for e in col:
        if e:
            return tuple(col) if e > 0 else tuple(-x for x in col)
    return tuple(col)
