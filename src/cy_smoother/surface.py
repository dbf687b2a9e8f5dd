"""Arithmetic of the shared K3 surface: Picard lattice, curves, genus.

The Picard lattice of the gluing surface is declared by the user (generic
quartic: rank one, Gram [[4]]); nothing here tries to compute Picard
groups from equations.  Ample-cone membership of the polarization is
likewise declared, not verified.
"""

from __future__ import annotations

import operator
from collections import namedtuple

PicardVector = tuple[int, ...]


class K3Model(namedtuple("K3Model", "gram class_names polarization")):
    """Picard lattice of a polarized K3 surface.

    gram is the intersection form on the declared generators as a tuple of
    int rows (symmetric, even diagonal, hyperbolic); polarization is the int
    coordinate vector of the ample class h, with h.h = 2n-2 > 0.  Entries go
    through ``operator.index``: bools and numpy integers become ``int``,
    floats and strings raise ``TypeError``.
    """

    __slots__ = ()

    def __new__(cls, gram, class_names: tuple[str, ...], polarization: PicardVector):
        rows = tuple(tuple(map(operator.index, row)) for row in gram)
        h = tuple(map(operator.index, polarization))
        self = super().__new__(cls, rows, class_names, h)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("Gram matrix must be square")
        if len(class_names) != n:
            raise ValueError("need one class name per lattice generator")
        if len(h) != n:
            raise ValueError("polarization length does not match lattice rank")
        for i, row in enumerate(rows):
            if row[i] % 2 != 0:
                raise ValueError("K3 intersection form must be even")
            for j in range(i + 1, n):
                if row[j] != rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        # one Gram image of h gives h.h and every x.h below
        hx = gram_image(rows, h)
        h2 = sum(map(operator.mul, h, hx))
        if h2 <= 0:  # the form is even, so every square is even
            raise ValueError("polarization must have positive even square, got %d" % h2)
        # Hodge index: h^perp is negative definite.  x -> h.h x - (x.h) h maps
        # the coordinate vectors other than p (h_p != 0) onto a basis of
        # h^perp and scales the form by h.h, giving h.h x.y - (x.h)(y.h).
        p = next(i for i, x in enumerate(h) if x)
        rest = [i for i in range(n) if i != p]
        if not _negative_definite([[h2 * rows[i][j] - hx[i] * hx[j] for j in rest] for i in rest]):
            raise ValueError(
                "Gram matrix is not hyperbolic; a K3 Picard lattice has signature (1, %d)"
                % (n - 1)
            )
        return self

    @classmethod
    def _make(cls, fields):  # _replace goes through _make: both run the checks
        return cls(*fields)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def degree(self) -> int:
        """h.h = 2n-2 of the polarization."""
        return intersect(self, self.polarization, self.polarization)

    @classmethod
    def quartic(cls) -> "K3Model":
        """The generic quartic surface: rank one, Gram [[4]]."""
        return cls(((4,),), ("h",), (1,))


def gram_image(gram, v) -> list[int]:
    """G v for the symmetric Gram G with the given rows: the sum of the rows at
    v's nonzero coordinates, so a zero coordinate costs nothing."""
    out = [0] * len(gram)
    for row, x in zip(gram, v):
        if x:
            out = [a + x * e for a, e in zip(out, row)]
    return out


def _negative_definite(rows) -> bool:
    """Sylvester's criterion: the k-th leading minor has sign (-1)^k.

    Fraction-free (Bareiss) elimination leaves the k-th leading minor as
    the k-th pivot, in exact integers.  The trailing block of a symmetric
    matrix stays symmetric, so only its upper triangle is updated.
    """
    m = [list(r) for r in rows]
    prev, sign = 1, -1
    for k, top in enumerate(m):
        piv = top[k]
        if sign * piv <= 0:
            return False
        for i in range(k + 1, len(m)):
            a, row = top[i], m[i]
            for j in range(i, len(m)):
                row[j] = (row[j] * piv - a * top[j]) // prev
        prev, sign = piv, -sign
    return True


def intersect(D: K3Model, a, b) -> int:
    """Evaluate the Gram form: a . b on Pic(D)."""
    a = tuple(map(operator.index, a))
    b = tuple(map(operator.index, b))
    n = len(D.gram)
    if len(a) != n or len(b) != n:
        raise ValueError(
            "vector length mismatch: lattice rank %d, got %d and %d" % (n, len(a), len(b))
        )
    gb = gram_image(D.gram, b)
    return sum(x * y for x, y in zip(a, gb))


def genus_from_square(c2: int) -> int:
    """Genus c.c/2 + 1 of a curve class on a K3 with self-intersection c.c."""
    if c2 < -2 or c2 % 2 != 0:
        raise ValueError(
            "self-intersection %d is not that of a curve class on a K3" % c2
        )
    return c2 // 2 + 1
