"""Exact integer linear algebra over finitely generated abelian groups.

Everything here works with Python's arbitrary-precision integers; no
floating point is ever involved.  ``IntMatrix`` is the validated argument
type of the public functions and nothing else: the steps pass plain row
lists, and every result is plain values (a basis is a list of its
vectors).  One gcd row elimination, ``echelon_rows``, is behind every
factorization and the RG^4 Gram display.  One echelon form with a
unimodular transform per map (``_factor``) gives its saturated kernel,
canonical solving and its image basis; ``fiber_product`` factors each of
its two maps once, and a lattice intersection eliminates the stacked
generators once.  Ranks read the echelon form alone.  The row-style
Hermite normal form (HNF, ``_hnf_rows``) is taken only where a canonical
basis is read: ``_canonical`` (kernels), the result of an intersection
and ``hermite_row_form``; the kernel of one row whose first nonzero entry
divides the row is that HNF in closed form.
One Smith normal form (SNF) elimination, ``_smith``, carries U^-1 along
and is behind both ``smith_normal_form`` and ``quotient``: a canonical
section of the free quotient of Z^n by a relation lattice, read from
U^-1's trailing columns.  A quotient with torsion raises; every result is
modulo torsion, and both quotients the smoothing takes are by saturated
lattices.

Canonical forms matter: kernels and quotient sections are normalized so
that repeated runs (and golden tests) see byte-identical output.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix, row-major entries, exact arithmetic only.

    Invariant: every entry is an ``int``.  The constructor passes each
    entry through ``operator.index``, so integer-like values (``bool``,
    numpy integers) become ``int`` and floats or strings raise
    ``TypeError``.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        entries = tuple(map(operator.index, entries))
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError(
                "entry count %d does not match %dx%d" % (len(entries), rows, cols)
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("IntMatrix is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        else:
            cols = 0 if cols is None else cols
        return cls(len(rows), cols, [e for r in rows for e in r])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        cols = [list(c) for c in cols]
        if cols:
            rows = len(cols[0])
            if any(len(c) != rows for c in cols):
                raise ValueError("ragged columns")
        else:
            rows = 0 if rows is None else rows
        return cls(rows, len(cols), [cols[j][i] for i in range(rows) for j in range(len(cols))])

    # -- access ----------------------------------------------------------------

    def to_rows(self) -> list[list[int]]:
        m = self.cols
        return [list(self.entries[i * m : (i + 1) * m]) for i in range(self.rows)]

    def to_columns(self) -> list[list[int]]:
        return [list(self.entries[j :: self.cols]) for j in range(self.cols)]

    # -- arithmetic --------------------------------------------------------------

    def mul_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length %d, expected %d" % (len(vec), self.cols))
        # a combination of M's columns: a zero coordinate costs nothing
        out = [0] * self.rows
        for k, v in enumerate(vec):
            if v:
                out = [a + v * e for a, e in zip(out, self.entries[k :: self.cols])]
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, list(self.entries))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


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


def smith_normal_form(M: IntMatrix) -> tuple[list[list[int]], ...]:
    """Smith normal form with transforms: returns the rows of (U, S, V) with S = U*M*V.

    U and V are unimodular, S is diagonal with nonnegative entries in a
    divisibility chain d_i | d_{i+1}.  Total function; deterministic pivot
    choice (smallest absolute value, then lowest position).

    ``_smith`` eliminates on M's n rows, each extended by the matching row
    of U, followed by V's m rows: row operations reach M and U, column
    operations M and V.
    """
    n, m = M.rows, M.cols
    R = [a + u for a, u in zip(M.to_rows(), _identity_rows(n))] + _identity_rows(m)
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
    A = [list(v) for v in vectors]
    return A[: len(echelon_rows(A, [[] for _ in A]))]


def _hnf_rows(vectors) -> list[list[int]]:
    """The nonzero rows of the row-style Hermite normal form of the given vectors.

    Pivots are positive and strictly to the right as rows descend, and the
    entries above a pivot are reduced into [0, pivot).  The elimination
    below a pivot never reads the rows above it, so the upward reduction
    waits until the echelon form is complete.
    """
    A = [list(v) for v in vectors]
    pivots = echelon_rows(A, [[] for _ in A])
    for prow, col in enumerate(pivots):
        d = A[prow][col]
        for i in range(prow):
            q = A[i][col] // d  # floor brings the entry into [0, d)
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[prow])]
    return A[: len(pivots)]


def hermite_row_form(M: IntMatrix) -> list[list[int]]:
    """Rows of the row-style Hermite normal form H of M, zero rows dropped (see ``_hnf_rows``)."""
    return _hnf_rows(M.to_rows())


def rank(M: IntMatrix) -> int:
    """Rank of M: the pivot count of an echelon form of its shorter side."""
    return len(_echelon(M.to_rows() if M.rows <= M.cols else M.to_columns()))


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
    return [h[::-1] for h in reversed(_hnf_rows(v[::-1] for v in vectors))]


def _factor(vectors) -> tuple[list[list[int]], list[list[int]]]:
    """H = T M^t with T unimodular and H in echelon form, for M with the given columns.

    Returns the rows (H, T).  One factorization serves three questions: H's
    rows are a basis of M's image, T's rows past ``len(H)`` span M's
    saturated kernel, and T's first ``len(H)`` rows are preimages of H's.
    No HNF is taken: its upward reduction would replace the first rows of H
    and T by R H and R T, R unit upper-triangular, which keeps the kernel
    rows, the image lattice and every preimage (z H = (z R^-1)(R H)).
    """
    A = [list(v) for v in vectors]
    T = _identity_rows(len(A))
    return A[: len(echelon_rows(A, T))], T


def _kernel(H: list[list[int]], T: list[list[int]]) -> list[list[int]]:
    """Canonical kernel basis from the factorization (H, T) of M."""
    return _canonical(T[len(H) :])


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


def kernel_basis(M: IntMatrix) -> list[list[int]]:
    """Canonical basis of the saturated kernel {x : Mx = 0}, a list of vectors.

    One row q whose first nonzero entry q_k divides every entry has its
    basis in closed form: e_c for c < k and e_c - (q_c / q_k) e_k for
    c > k, in that order.  These span the kernel, each ends in a 1 at its
    own c, and no other vector is nonzero there, so they are the
    reversed-order HNF that ``_canonical`` computes.
    """
    if M.rows == 1:
        q = M.entries
        k = next((i for i, e in enumerate(q) if e), -1)
        if k >= 0 and all(e % q[k] == 0 for e in q):
            basis = []
            for c in range(M.cols):
                if c != k:
                    v = [0] * M.cols
                    v[c], v[k] = 1, -(q[c] // q[k])
                    basis.append(v)
            return basis
    return _kernel(*_factor(M.to_columns()))


def solve_exact(M: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Canonical particular integer solution of M x = b, or None.

    Column-echelon elimination (``_factor``) with free variables set to
    zero; the gcd pivoting prefers small leading coefficients, which keeps
    golden outputs stable.
    """
    if len(b) != M.rows:
        raise ValueError("rhs length mismatch")
    return _preimage(*_factor(M.to_columns()), b)


def _intersect(U, V) -> list[list[int]]:
    """HNF rows of span(U) n span(V), for lists of vectors in one Z^n.

    An echelon form of the rows U + (-V), with U and zeros for V carried
    along as companion rows, turns each companion row past the rank into
    the common vector of a kernel relation.  These span the intersection,
    and its HNF depends only on that lattice.
    """
    if not U or not V:
        return []
    A = U + [[-e for e in v] for v in V]
    C = U + [[0] * len(U[0]) for _ in V]
    return _hnf_rows(C[len(echelon_rows(A, C)) :])


def intersect_column_lattices(A: IntMatrix, B: IntMatrix) -> list[list[int]]:
    """Canonical basis of (column span of A) n (column span of B), a list of vectors."""
    if A.rows != B.rows:
        raise ValueError("ambient dimension mismatch")
    return _intersect(A.to_columns(), B.to_columns())


def fiber_product(A: IntMatrix, B: IntMatrix):
    """Canonical basis of {(x, y) : A x = B y}, stacked as columns (x | y).

    Returns (diag, vert1, vert2), each a list of sign-normalized stacked
    vectors: diag pairs the canonical preimages of the canonical basis of
    (image A) n (image B); vert1 and vert2 are the kernels of A and of B,
    padded with zeros on the other side.  A and B are factored once each;
    the intersection is taken of their image bases, which span the same
    lattices as their columns.
    """
    (HA, TA), (HB, TB) = _factor(A.to_columns()), _factor(B.to_columns())
    diag = [
        sign_normalize_column(_preimage(HA, TA, u) + _preimage(HB, TB, u))
        for u in _intersect(HA, HB)
    ]
    zeros_a, zeros_b = (0,) * A.cols, (0,) * B.cols
    vert1 = [sign_normalize_column(tuple(k) + zeros_b) for k in _kernel(HA, TA)]
    vert2 = [sign_normalize_column(zeros_a + tuple(k)) for k in _kernel(HB, TB)]
    return diag, vert1, vert2


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def quotient(relations: IntMatrix) -> list[list[int]]:
    """Canonical section of Z^n modulo the column span of ``relations``, n = relations.rows.

    The quotient must be free: a Smith invariant above 1 raises
    ``ValueError`` naming the invariants.  The section is a list of
    vectors that lift a basis of the quotient to the ambient lattice, and
    together with the relations they span it.  Each is reduced modulo the
    relation lattice, so the lift is canonical.
    """
    S = relations.to_rows()
    # no companions: only U^-1's columns are read, not U or V
    inverse_cols = _smith(S, relations.rows, relations.cols)
    diag = [S[t][t] for t in range(min(relations.rows, relations.cols)) if S[t][t]]
    if any(d > 1 for d in diag):
        raise ValueError("the quotient has torsion: Smith invariants %r" % (tuple(diag),))
    # canonical representatives: reduce modulo the relation lattice.  Any
    # echelon basis will do: two vectors in [0, pivot) at every pivot that
    # differ by a relation are equal, so the upward reduction is not needed.
    # Last first, as in smoothing._quotient_by: kernel_basis orders its classes
    # by the column they end in, and the forward order spreads fill to every row
    rel_basis = _echelon(relations.to_columns()[::-1])
    return [_reduce(c, rel_basis)[1] for c in inverse_cols[len(diag) :]]


def sign_normalize_column(col: Sequence[int]) -> tuple[int, ...]:
    """Flip the sign so the first nonzero coordinate is positive."""
    for e in col:
        if e:
            return tuple(col) if e > 0 else tuple(-x for x in col)
    return tuple(col)
