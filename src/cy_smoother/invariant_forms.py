"""Classical invariants of the cubic cup-product form and deformation grouping.

The Aronhold S (degree 4) and T (degree 6) invariants of a ternary cubic
distinguish GL-inequivalent forms; equal invariants prove nothing.

Normalization.  Write the cubic symbolically, T_ijk = a_i a_j a_k =
b_i b_j b_k = ... (so F(x) = sum T_ijk x_i x_j x_k), and let [abc] be the
determinant of the symbols a, b, c.  The classical bracket forms
(Aronhold, Clebsch; Salmon, Higher Plane Curves; Sturmfels, Algorithms
in Invariant Theory) give

    S = -[abc][abd][acd][bcd] / 24,    T = [abc][abd][ace][bcf][def]^2,

evaluated in exact integers: every coefficient of the bracket polynomial
of S, in the ten entries T_ijk, is a multiple of 24.

On a x^3 + b y^3 + c z^3 + 6 m xyz these read

    S = a b c m - m^4,    T = -6 (a^2 b^2 c^2 - 20 a b c m^3 - 8 m^6),

so S has the classical scale and T is -6 times the classical one; the
two published reference cubics evaluate to T = -86400 and -38400.  The
normalization-free outputs are the S = 0 flag and ratios of T values.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import Iterable, Mapping, Sequence


def _canonical_key(idx: Sequence[int], rank: int) -> tuple[int, ...]:
    key = tuple(sorted(map(operator.index, idx)))
    if len(key) != 3 or key[0] < 1 or key[2] > rank:
        raise ValueError("bad tensor index %r for rank %d" % (tuple(idx), rank))
    return key


def _array(tensor: "CubicTensor") -> list[list[list[int]]]:
    """The full symmetric array A[i][j][k] = T_(i+1)(j+1)(k+1), zeros included."""
    R, T = range(tensor.rank), tensor.entries
    return [[[T.get(tuple(sorted((i + 1, j + 1, k + 1))), 0) for k in R] for j in R] for i in R]


class CubicTensor(namedtuple("CubicTensor", "rank entries")):
    """Symmetric integer 3-tensor T_ijk, stored on sorted index triples.

    The constructor takes entries on any index order and stores them as a
    dict keyed by the sorted triples, in sorted order.
    """

    __slots__ = ()

    def __new__(cls, rank: int, entries: Mapping[tuple[int, int, int], int]):
        if rank < 0:
            raise ValueError("negative rank")
        canon = {}
        for idx, v in entries.items():
            key = _canonical_key(idx, rank)
            v = operator.index(v)
            if canon.setdefault(key, v) != v:
                raise ValueError("conflicting values for symmetric entry %r" % (key,))
        return super().__new__(cls, rank, dict(sorted(canon.items())))

    @classmethod
    def _make(cls, fields):  # _replace goes through _make: both run the checks
        return cls(*fields)

    def value(self, i: int, j: int, k: int) -> int:
        return self.entries.get(_canonical_key((i, j, k), self.rank), 0)

    def change_basis(self, M: Sequence[Sequence[int]]) -> "CubicTensor":
        """Tensor of the same form in the basis f_j = sum_i M[i][j] e_i."""
        n = self.rank
        if len(M) != n or any(len(r) != n for r in M):
            raise ValueError("change-of-basis matrix must be %dx%d" % (n, n))
        R = range(n)
        A = _array(self)
        # three single-index contractions; each moves the contracted index
        # last, so after the third the indices are back in order
        for _ in range(3):
            A = [[[sum(M[p][a] * A[p][q][r] for p in R) for a in R] for r in R] for q in R]
        return CubicTensor(
            n, {(a + 1, b + 1, c + 1): A[a][b][c] for a in R for b in R[a:] for c in R[b:]}
        )


class CyInvariantTriple(namedtuple("CyInvariantTriple", "rho_cubed rho_c2 h12")):
    """The numerical invariants of a Picard-rank-one Calabi-Yau 3-fold (h12 may be None)."""

    __slots__ = ()

    def __new__(cls, rho_cubed: int, rho_c2: int, h12: int | None = None):
        if rho_cubed <= 0:
            raise ValueError("rho^3 must be positive for an ample generator")
        return super().__new__(cls, rho_cubed, rho_c2, h12)

    @classmethod
    def _make(cls, fields):  # _replace goes through _make: both run the checks
        return cls(*fields)

    @property
    def key(self) -> tuple[int, int]:
        return (self.rho_cubed, self.rho_c2)


# The six signed permutations of (0, 1, 2): a bracket [xyz] contracts the
# three symbols' indices against the Levi-Civita symbol.
_EPS = (
    (1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1)),
    (-1, (0, 2, 1)), (-1, (2, 1, 0)), (-1, (1, 0, 2)),
)


def _abc_ab_ac_bc(A, X) -> int:
    """[abc][abp][acq][bcr] contracted with A_a A_b A_c and X[p][q][r].

    With X = A (p = q = r = d) this is [abc][abd][acd][bcd]; with X the
    squared bracket M of `aronhold_ST` it is [abc][abd][ace][bcf][def]^2.
    """
    total = 0
    for s1, (a1, b1, c1) in _EPS:
        for s2, (a2, b2, p) in _EPS:
            for s3, (a3, c2, q) in _EPS:
                w = s1 * s2 * s3 * A[a1][a2][a3]
                if w:
                    Ac = A[c1][c2]
                    for s4, (b3, c3, r) in _EPS:
                        total += s4 * w * A[b1][b2][b3] * Ac[c3] * X[p][q][r]
    return total


def aronhold_ST(tensor: CubicTensor) -> tuple[int, int]:
    """Aronhold S and T invariants of a rank-3 cubic tensor.

    S = -[abc][abd][acd][bcd] / 24 and T = [abc][abd][ace][bcf][def]^2
    (see the module docstring).  Under a basis change of determinant d
    every bracket scales by d, so S and T scale by d^4 and d^6 and are
    GL(3,Z) invariants.
    """
    if tensor.rank != 3:
        raise ValueError("Aronhold invariants need a rank-3 tensor, got rank %d" % tensor.rank)
    R, A = range(3), _array(tensor)
    # M[p][q][r] = [def]^2 with d, e, f's free indices p, q, r
    M = [
        [
            [
                sum(
                    s * t * A[p][d1][d2] * A[q][e1][e2] * A[r][f1][f2]
                    for s, (d1, e1, f1) in _EPS
                    for t, (d2, e2, f2) in _EPS
                )
                for r in R
            ]
            for q in R
        ]
        for p in R
    ]
    return -_abc_ab_ac_bc(A, A) // 24, _abc_ab_ac_bc(A, M)


def rr_dimension(inv: CyInvariantTriple, n: int) -> int:
    """chi(O(n rho)) = rho^3 n^3 / 6 + (rho.c2) n / 12 on a Calabi-Yau 3-fold."""
    if not isinstance(n, int):
        raise ValueError("n must be an integer")
    twelve_chi = 2 * inv.rho_cubed * n**3 + inv.rho_c2 * n
    if twelve_chi % 12:
        g = math.gcd(twelve_chi, 12)
        raise ValueError(
            "chi(O(%d rho)) = %d/%d is not an integer; the invariant pair "
            "(%d, %d) is inconsistent" % (n, twelve_chi // g, 12 // g, inv.rho_cubed, inv.rho_c2)
        )
    return twelve_chi // 12


def deformation_group(items: Iterable[tuple[str, CyInvariantTriple]]):
    """Partition labelled Calabi-Yau 3-folds by the exact pair (rho^3, rho.c2).

    Members of one group embed into the same projective space with one
    Hilbert polynomial, hence lie in one Hilbert scheme and are connected
    by projective flat deformation.  h12 rides along but never enters the
    grouping.
    """
    groups: dict[tuple[int, int], list[str]] = {}
    for label, inv in items:
        groups.setdefault(inv.key, []).append(label)
    return [
        {"rho_cubed": k[0], "rho_c2": k[1], "members": tuple(v)}
        for k, v in sorted(groups.items())
    ]
