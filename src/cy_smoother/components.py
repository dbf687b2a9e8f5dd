"""Cohomological model of one half of the normal crossing.

A component is a rank-one Fano base blown up successively along an
ordered list of curves lying on the anticanonical K3.  Only the
cohomological shadow is built: the data of the triple product on H^2,
the second-Chern-class covector, the restriction map to the K3 lattice,
the H^2 x H^4 pairing, and the degrees against the gluing surface.

Basis conventions.  H^2 has basis (H, e_1 ... e_s) where H pulls back the
primitive ample class of the base and e_i is the pullback to the final
stage of the step-i exceptional divisor.  H^4 has basis (g, M_1 ... M_s)
with g the class dual to H (H.g = 1) and M_i a fiber of the step-i
exceptional ruling.  Writing d_i = h.c_i for the polarization degree of a
center and m_ij = c_i.c_j, the nonzero products are

    H^3 = H_cubed            H.e_i^2 = -d_i
    e_i^3 = -r d_i + sum_{k<i} m_ki + 2 - 2 g_i
    e_j.e_i^2 = -m_ji (j < i)
    H.c2 = 24/r + sum d_i    e_i.c2 = r d_i - sum_{k<i} m_ki + sum_{k>i} m_ik
    H.g = 1                  e_i.M_i = -1
    g.D = r                  M_i.D = 1

with every other mixed product zero.  These rules are calibrated against
the full set of worked blow-up tables and conserve -K.c2 = 24 at every
stage.  ``_cup`` evaluates them as the covector a -> a.b.c of a pair
(b, c), and ``triple_product`` dots a with it; only the e_i^3 values are
stored, and no triple-product tensor is built.  Likewise the H^2 x H^4
pairing is a dot product with the covector ``_pairing``.  The two private
covectors take vectors already passed through ``_check_vec``, so callers
that reuse a vector (``smoothing``) check its length once.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

# bench/test_bench.py checks that its tracer rebinds ``intersect`` here
from .surface import K3Model, genus_from_square, gram_image, intersect  # noqa: F401


class FanoFamily(
    namedtuple("FanoFamily", "id b2 index minus_K_cubed h12 provenance description")
):
    """A Fano 3-fold family: -K = r*H with H primitive ample.

    One record serves both the closed-form pair search (``catalog``) and,
    when b2 = 1, the lattice engine as the base of a blown-up component.
    """

    __slots__ = ()

    def __new__(cls, id: str, b2: int, index: int, minus_K_cubed: int, h12: int,
                provenance: str = "", description: str = ""):
        if b2 < 1 or index < 1 or minus_K_cubed <= 0 or h12 < 0:
            raise ValueError("invalid numeric data for family %r" % id)
        r = index
        if minus_K_cubed % r**2 != 0:
            raise ValueError(
                "family %r: -K^3 = %d is not divisible by index^2 = %d"
                % (id, minus_K_cubed, r**2)
            )
        # b2 = 1: H generates H^2, so H^3 = -K^3/r^3 and H.c2 = 24/r are integers
        if b2 == 1 and (minus_K_cubed % r**3 or 24 % r):
            raise ValueError(
                "family %r: a rank-one base needs index^3 | -K^3 and index | 24, "
                "got index %d and -K^3 = %d" % (id, r, minus_K_cubed)
            )
        return super().__new__(cls, id, b2, index, minus_K_cubed, h12, provenance, description)

    @classmethod
    def _make(cls, fields):  # _replace goes through _make: both run the checks
        return cls(*fields)

    @property
    def delta(self) -> int:
        """-K^3 / r^2, the degree h.h of the anticanonical K3."""
        return self.minus_K_cubed // self.index**2

    @property
    def rank_one(self) -> bool:
        return self.b2 == 1

    @property
    def H_cubed(self) -> int:
        return self.minus_K_cubed // self.index**3


P3 = FanoFamily("P3", b2=1, index=4, minus_K_cubed=64, h12=0)


class BlownComponent(
    namedtuple(
        "BlownComponent",
        "base k3 centers degrees genera mutual e_cubed c2_covector D_class",
    )
):
    """One component Y of the normal crossing, fully populated.

    Fields: base (FanoFamily), k3 (K3Model), centers (PicardVector per
    center), degrees h.c_i, genera g_i, mutual c_i.c_j, e_cubed e_i^3,
    c2_covector and D_class.
    """

    __slots__ = ()

    @property
    def restriction(self) -> tuple[tuple[int, ...], ...]:
        """The restriction map H^2(Y) -> Pic(D) as its columns (h, c_1, ..., c_s)."""
        return (self.k3.polarization,) + self.centers

    @property
    def h2_rank(self) -> int:
        return 1 + len(self.centers)

    @property
    def h12(self) -> int:
        return self.base.h12 + sum(self.genera)


def build_component(base: FanoFamily, D: K3Model, centers) -> BlownComponent:
    """Blow up the base along the given ordered curves on D."""
    if base.b2 != 1:
        raise ValueError(
            "base %r has b2 = %d; full lattice mode needs b2 = 1 "
            "(use the fano_catalog closed forms instead)" % (base.id, base.b2)
        )
    # D in |r H|, so h.h = H^2.D = r H^3 = delta
    if D.degree != base.delta:
        raise ValueError(
            "K3 degree h.h = %d does not match base %r (r H^3 = %d)"
            % (D.degree, base.id, base.delta)
        )
    h = D.polarization
    # h = H|_D with H a generator of H^2(V, Z), which Lefschetz embeds in
    # H^2(D, Z) with torsion-free cokernel: h is primitive
    g = math.gcd(*h)
    if g != 1:
        raise ValueError(
            "polarization %r is not primitive (divisible by %d), but H|_D is" % (h, g)
        )
    coords = []
    for c in centers:
        v = tuple(map(operator.index, c))
        if len(v) != D.rank:
            raise ValueError(
                "center %r does not lie in the declared Pic(D) (rank %d)" % (v, D.rank)
            )
        coords.append(v)
    centers_t = tuple(coords)
    s = len(centers_t)
    r = base.index

    # one Gram image per center (h's is taken by the degree check, and by the
    # (-2)-class check below): every h.c_i and c_i.c_j is a dot product with one
    images = [gram_image(D.gram, c) for c in centers_t]
    degrees = tuple(sum(map(operator.mul, h, im)) for im in images)
    for i, d in enumerate(degrees):
        if d <= 0:
            raise ValueError(
                "center %d has degree h.c = %d; a curve needs h.c > 0" % (i + 1, d)
            )
    mutual = tuple(tuple(sum(map(operator.mul, c, im)) for im in images) for c in centers_t)
    genera = tuple(genus_from_square(mutual[i][i]) for i in range(s))
    for i in range(s):
        for j in range(i + 1, s):
            if mutual[i][j] < 0:
                raise ValueError(
                    "centers %d and %d meet negatively (m = %d)" % (i + 1, j + 1, mutual[i][j])
                )
    # A declared (-2)-class e with x = h.e != 0 makes sign(x) e effective, so
    # an irreducible curve c with h.c > |x| meets it nonnegatively.
    roots = [j for j, row in enumerate(D.gram) if row[j] == -2]
    hx = gram_image(D.gram, h) if roots else ()
    for j in roots:
        x = hx[j]
        for i, im in enumerate(images):
            if x and abs(x) < degrees[i] and im[j] * x < 0:
                raise ValueError(
                    "center %d has c.%s = %d against h.%s = %d < h.c: the (-2)-class is a "
                    "fixed component, so the center is not a curve"
                    % (i + 1, D.class_names[j], im[j], D.class_names[j], x)
                )

    e_cubed = tuple(
        -r * degrees[i] + sum(mutual[k][i] for k in range(i)) + 2 - 2 * genera[i]
        for i in range(s)
    )

    c2 = [24 // r + sum(degrees)]
    for i in range(s):
        c2.append(
            r * degrees[i]
            - sum(mutual[k][i] for k in range(i))
            + sum(mutual[i][k] for k in range(i + 1, s))
        )

    D_class = tuple([r] + [-1] * s)

    return BlownComponent(
        base=base,
        k3=D,
        centers=centers_t,
        degrees=degrees,
        genera=genera,
        mutual=mutual,
        e_cubed=e_cubed,
        c2_covector=tuple(c2),
        D_class=D_class,
    )


def _check_vec(Y: BlownComponent, a, what: str) -> tuple[int, ...]:
    a = tuple(map(operator.index, a))
    if len(a) != Y.h2_rank:
        raise ValueError(
            "%s has length %d, component H^2 rank is %d" % (what, len(a), Y.h2_rank)
        )
    return a


def _cup(Y: BlownComponent, b: tuple[int, ...], c: tuple[int, ...]) -> tuple[int, ...]:
    """The covector a -> a.b.c of the cup product, from the blow-up rules.

    entry 0: H^3 b0 c0 - sum_j d_j b_j c_j
    entry j: e_j^3 b_j c_j - d_j (b0 c_j + b_j c0)
             - sum_{i<j} m_ij (b_i c_j + b_j c_i) - sum_{k>j} m_jk b_k c_k
    """
    b0, c0 = b[0], c[0]
    # record fields are tuple lookups: read them once, not once per j
    degrees, e_cubed, mutual = Y.degrees, Y.e_cubed, Y.mutual
    cov = [Y.base.H_cubed * b0 * c0] + [0] * (len(b) - 1)
    for j in range(1, len(b)):
        bj, cj = b[j], c[j]
        if not (bj or cj):
            continue
        bc, d = bj * cj, degrees[j - 1]
        cov[0] -= d * bc
        total = e_cubed[j - 1] * bc - d * (b0 * cj + bj * c0)
        for i, m in enumerate(mutual[j - 1][: j - 1], start=1):
            if m:
                total -= m * (b[i] * cj + bj * c[i])
                cov[i] -= m * bc
        cov[j] += total
    return tuple(cov)


def triple_product(Y: BlownComponent, a, b, c) -> int:
    """Cup product a.b.c on the component: a dotted with the covector _cup(Y, b, c)."""
    a = _check_vec(Y, a, "first vector")
    cov = _cup(Y, _check_vec(Y, b, "second vector"), _check_vec(Y, c, "third vector"))
    return sum(x * y for x, y in zip(a, cov))


def _pairing(a: tuple[int, ...]) -> tuple[int, ...]:
    """The covector u -> a.u of a in H^2 on H^4: (a0, -a1, ..., -as)."""
    return (a[0],) + tuple(-x for x in a[1:])


def pair_h2_h4(Y: BlownComponent, a, u) -> int:
    """Pairing of a in H^2 with u in H^4 (bases (H, e_i) and (g, M_i))."""
    cov = _pairing(_check_vec(Y, a, "H^2 vector"))
    u = tuple(map(operator.index, u))
    if len(u) != Y.h2_rank:
        raise ValueError("H^4 vector length mismatch")
    return sum(x * y for x, y in zip(cov, u))
