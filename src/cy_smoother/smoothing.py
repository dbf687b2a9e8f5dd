"""Assembly and invariants of the smoothed Calabi-Yau.

The central fiber is X0 = Y1 u_D Y2.  This module checks the smoothing
hypotheses, builds the fiber-product Picard lattice

    G^2 = {(l1, l2) : l1|_D = l2|_D},   RG^2 = G^2 / <(D, -D)>,

its degree-4 counterpart RG^4, the cubic cup-product form and the
second-Chern-class covector transported to RG^2, Hodge numbers, and the
unimodularity check on the RG^2 x RG^4 pairing.  All results are modulo
torsion.

Canonical generators.  ``exact_lattice.fiber_product`` splits G^2 into a
diagonal block (canonical preimages of the intersection of the two
restriction images) plus the per-component restriction kernels; the
degenerate class (D, -D) has a unit coordinate in that basis whenever any
blow-up center exists, and one such generator is dropped, preferring the
kernel element of the smallest-degree center.  The same construction on
the H^4 side (degree rows against D in place of the restriction maps, the
cup-product radical in place of (D, -D)) fixes the RG^4 generators up to
a final triangularization of the pairing Gram.  There G^4's basis is a
closed form of the two degree rows (r, 1, ..., 1), equal to what
``fiber_product`` gives on them.  This reproduces the published RG^2
generators and pairing Grams of all worked examples and keeps golden
output stable.  At Picard rank one no RG^4 basis is taken: the Gram is
[[gcd q]] for the generator's pairing row q against G^4's basis.

Lifts.  An RG^2 generator is one stacked vector (l1 | l2) in H^2(Y1) +
H^2(Y2).  Every step that reads the lifts (the RG^4 pairing rows, the
cubic and c2 forms, the reported generators) splits them with
``_halves``, which length-checks each half once; the products between
steps are plain dot products, a restriction map is its columns h, c_1,
..., c_s, a quotient section is mapped back by dot products with the
basis's coordinate rows, and the reported Gram is a tuple of rows.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

from . import components as comp
from .exact_lattice import (
    echelon_rows,
    fiber_product,
    kernel_basis,
    quotient,
    rank as matrix_rank,
    sign_normalize_column,
    solve_exact,
)
from .invariant_forms import CubicTensor

TORSION_NOTE = "all results modulo torsion"


class InternalInconsistencyError(RuntimeError):
    """A structural identity failed; upstream hypotheses must be broken."""


class NormalCrossingModel(namedtuple("NormalCrossingModel", "y1 y2")):
    """Two components (BlownComponent) glued along one shared K3 surface."""

    __slots__ = ()

    def __new__(cls, y1: comp.BlownComponent, y2: comp.BlownComponent):
        if y1.k3 != y2.k3:
            raise ValueError("components reference different K3 models")
        return super().__new__(cls, y1, y2)

    @classmethod
    def _make(cls, fields):  # _replace goes through _make: both run the checks
        return cls(*fields)

    @property
    def k3(self):
        return self.y1.k3

    @property
    def components(self):
        return (self.y1, self.y2)


class HypothesisVerdict(
    namedtuple("HypothesisVerdict", "key description status note", defaults=("",))
):
    """One smoothing hypothesis; status is "pass", "fail" or "assumed"."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "assumed")


def _halves(model: NormalCrossingModel, lifts) -> list[tuple[tuple[int, ...], ...]]:
    """Split each stacked lift at y1.h2_rank into (l1, l2), length-checking each half once."""
    y1, y2 = model.components
    n1 = y1.h2_rank
    return [
        (comp._check_vec(y1, l[:n1], "lift on Y1"), comp._check_vec(y2, l[n1:], "lift on Y2"))
        for l in lifts
    ]


def _dot(a, b) -> int:
    return sum(map(operator.mul, a, b))


def _choose_drop(basis, w_coords, n_diag):
    """Pick the basis element to remove when quotienting by one relation.

    Only positions where the relation has a unit coordinate are eligible.
    Vertical (single-component) elements are preferred, the one with the
    smallest leading coefficient first (the smallest-degree blow-up
    center), later position breaking ties; with no vertical candidate the
    last eligible position is used.  Returns None when no unit coordinate
    exists (caller falls back to a generic quotient).
    """
    candidates = [i for i, c in enumerate(w_coords) if abs(c) == 1]
    if not candidates:
        return None
    vert = [i for i in candidates if i >= n_diag]
    if vert:
        # a lattice basis element is nonzero, so each has a leading coefficient
        return min(vert, key=lambda i: (next(abs(e) for e in basis[i] if e), -i))
    return candidates[-1]


def _quotient_by(basis, relations, n_diag: int):
    """Generators of span(basis) modulo relations, a list of vectors in basis coordinates.

    Returns (generators, dropped index).  With one relation that has
    a unit coordinate the element chosen by _choose_drop is removed.
    Otherwise each vector of the generic quotient's section is mapped back
    to the ambient lattice as that combination of the basis (index -1).
    """
    if len(relations) == 1:
        drop = _choose_drop(basis, relations[0], n_diag)
        if drop is not None:
            gens = tuple(v for i, v in enumerate(basis) if i != drop)
            return gens, drop
    section = quotient(relations, len(basis))
    coords = list(zip(*basis))
    return tuple(sign_normalize_column([_dot(r, c) for r in coords]) for c in section), -1


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------


def check_smoothability(model: NormalCrossingModel) -> tuple[HypothesisVerdict, ...]:
    """The two-component smoothing hypotheses, as far as they are checkable.

    (1) trivial dualizing sheaf, (2) H^1 vanishing (declared, not
    computed), (3) matching ample restrictions (sufficient-condition
    check only), (4) d-semistability.
    """
    y1, y2 = model.components

    # D = pi* D_V - sum e_i = r H - sum e_i = -K_Y on every blown component
    v1 = HypothesisVerdict("omega_trivial", "D in |-K_Y| on both components", "pass")

    v2 = HypothesisVerdict(
        "h1_vanishing",
        "H^1(O_Y) = H^1(O_D) = 0",
        "assumed",
        "declared for rational components; not computed",
    )

    v3 = _kahler_verdict(model)

    # D_{Y1}|_D + D_{Y2}|_D, each side restricted by its own map, one row at a time
    rsum = [_dot(a, y1.D_class) + _dot(b, y2.D_class)
            for a, b in zip(zip(*y1.restriction), zip(*y2.restriction))]
    dss = all(x == 0 for x in rsum)
    v4 = HypothesisVerdict(
        "d_semistability",
        "N_{D/Y1} (x) N_{D/Y2} = O_D",
        "pass" if dss else "fail",
        ""
        if dss
        else "sum of center classes differs from (r1+r2)h by %r" % (rsum,),
    )
    return (v1, v2, v3, v4)


def _kahler_verdict(model: NormalCrossingModel) -> HypothesisVerdict:
    """Closed-form Kahler matching verdict; it always passes.

    The polarization h is column 0 of both restriction maps and h.h > 0
    (enforced by K3Model), so an h-positive class restricts from both
    sides.  The candidate pair -(n r2 - 1) K_{Y1} and
    -(n r1 - 1) pi* K_{V2} - sum E is coefficient-positive (H part and
    every fiber degree) iff n r2 >= 2 and n r1 >= 2, so the least such n
    is 1 when both indices are at least 2, and 2 otherwise.
    """
    y1, y2 = model.components
    n = 1 if min(y1.base.index, y2.base.index) >= 2 else 2
    return HypothesisVerdict(
        "kahler_matching",
        "ample H1, H2 with H1|_D ~ H2|_D",
        "pass",
        "sufficient-condition check only; candidate ample pair positive at n = %d" % n,
    )


# ---------------------------------------------------------------------------
# RG^2
# ---------------------------------------------------------------------------


class RG2Result(namedtuple("RG2Result", "generators g2_basis degenerate dropped_index")):
    """generators: stacked (H^2(Y1) | H^2(Y2)) lifts; g2_basis: the full basis
    of G^2, same stacking; degenerate: the class (D, -D); dropped_index: the
    basis position removed, -1 after a generic quotient."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.generators)


def compute_rg2(model: NormalCrossingModel) -> RG2Result:
    """The Picard lattice of the smoothing with canonical lifted generators."""
    y1, y2 = model.components
    diag, vert1, vert2 = fiber_product(y1.restriction, y2.restriction)
    basis = diag + vert1 + vert2
    w = y1.D_class + tuple(-x for x in y2.D_class)
    wc = solve_exact(basis, w)
    if wc is None:
        raise InternalInconsistencyError(
            "(D, -D) is not a fiber-product class; d-semistability must be violated"
        )
    gens, drop = _quotient_by(basis, [wc], len(diag))
    return RG2Result(gens, tuple(basis), w, drop)


# ---------------------------------------------------------------------------
# RG^4 and the unimodularity condition
# ---------------------------------------------------------------------------


class RG4Result(namedtuple("RG4Result", "gram unimodular")):
    """gram: the RG^2 x RG^4 pairing, one tuple row per RG^2 generator, in an
    RG^4 basis that makes it lower-triangular with positive pivots ([[gcd q]]
    at Picard rank one); unimodular: whether it has determinant +-1."""

    __slots__ = ()


def _degree_row_kernel(r: int, s: int) -> list[tuple[int, ...]]:
    """Canonical kernel basis of the degree row (r, 1, ..., 1) with s ones.

    It is (1, -r, 0, ...) followed by (1, -(r-1), 0, ..., -1 at j, ...) for
    j = 2..s, and empty when s = 0: the sign-normalized ``kernel_basis``
    of that row.
    """
    if s == 0:
        return []
    zeros = (0,) * (s - 1)
    return [(1, -r) + zeros] + [
        (1, 1 - r) + zeros[: j - 2] + (-1,) + zeros[j - 1 :] for j in range(2, s + 1)
    ]


def _degree_row_preimage(r: int, s: int, L: int) -> tuple[int, ...]:
    """``solve_exact`` of (r, 1, ..., 1) x = L: L at the first smallest |entry|."""
    if s == 0:
        return (L // r,)
    x = [0] * (1 + s)
    x[0 if r == 1 else 1] = L
    return tuple(x)


def _g4_basis(r1: int, s1: int, r2: int, s2: int):
    """``fiber_product`` of the degree rows (r1, 1^s1) and (r2, 1^s2), in closed form.

    A row (r, 1^s) has image g Z with g = 1 when s >= 1 and g = r when
    s = 0, so the intersection of the images is lcm(g1, g2) Z and the
    diagonal block is the single pair of preimages of lcm(g1, g2).  The
    kernels are padded with zeros on the other side.  Returns (diag,
    vert1, vert2) exactly as ``fiber_product`` does.
    """
    L = math.lcm(1 if s1 else r1, 1 if s2 else r2)
    diag = [_degree_row_preimage(r1, s1, L) + _degree_row_preimage(r2, s2, L)]
    zeros1, zeros2 = (0,) * (1 + s1), (0,) * (1 + s2)
    vert1 = [k + zeros2 for k in _degree_row_kernel(r1, s1)]
    vert2 = [zeros1 + k for k in _degree_row_kernel(r2, s2)]
    return diag, vert1, vert2


def compute_rg4_and_consur(model: NormalCrossingModel, rg2: RG2Result) -> RG4Result:
    """The RG^2 x RG^4 pairing Gram and its unimodularity verdict.

    On valid input the pairing is perfect: G^2 is saturated (it is a
    kernel), G^4 = (D, -D)^perp, and the radical of the pairing of G^2
    against G^4 is (G^2)^perp.  The stacked pairing diag(1, -1, ..., -1) of
    H^2 against H^4 is unimodular, so RG^4 = G^4 / (G^2)^perp is the group
    of functionals on G^2 that kill (D, -D), that is Hom(RG^2, Z).

    Rank one.  With one RG^2 generator l, its pairing row q_j = l.scan_j
    against the m classes scan_j of the G^4 basis maps RG^4 = Z^m / ker q
    onto g Z with g = gcd(q).  So every RG^4 generator pairs to +-g with l,
    the Gram's sign fix below makes it [[g]] whatever basis a quotient
    would pick, and no quotient is taken; q = 0 is the rank mismatch.
    """
    y1, y2 = model.components
    # G^4 = {(u1, u2) : u1.D = u2.D}, in closed form from the degree rows
    # (r, 1, ..., 1) of D against (g, M_1, ..., M_s)
    diag, vert1, vert2 = _g4_basis(
        y1.base.index, len(y1.centers), y2.base.index, len(y2.centers)
    )
    scan = diag + vert1 + vert2
    # radical of the pairing against all of G^2; (D, -D) pairs to zero with
    # G^4, so its rank is at least the joint restriction rank k >= 1.  G^2
    # lies in the rational span of the RG^2 generators and (D, -D), so the
    # pairing with the generators alone has the same saturated kernel, and
    # kernel_basis returns that lattice's canonical basis.  P's rows are the
    # covectors u -> l.u of the lifts l, both halves side by side, and the
    # pairing's column j pairs every lift with scan_j.
    P = [comp._pairing(l1) + comp._pairing(l2) for l1, l2 in _halves(model, rg2.generators)]
    pairing = [[_dot(p, u) for p in P] for u in scan]
    radical = kernel_basis(pairing)
    rank4 = len(scan) - len(radical)
    if rank4 != len(P):
        # G^4 = (D, -D)^perp, so RG^2 and RG^4 pair nondegenerately
        raise InternalInconsistencyError(
            "rank mismatch: RG^2 has rank %d, RG^4 has rank %d" % (len(P), rank4)
        )
    if len(P) == 1:
        g = math.gcd(*(q for (q,) in pairing))
        return RG4Result(((g,),), g == 1)
    gens, drop = _quotient_by(scan, radical, len(diag))
    if drop != -1:
        # output order: verticals first, then what is left of the diagonal block
        split = len(diag) - (drop < len(diag))
        gens = gens[split:] + gens[:split]
    # Column operations (changes of the RG^4 basis) bring the Gram to an
    # echelon form of its columns: lower-triangular with positive pivots.
    # It is unimodular iff there are h11 pivots, all equal to 1, and then it
    # is lower unitriangular, which reproduces the published display for the
    # worked examples.  Gram column j pairs every RG^2 generator with gens[j].
    cols = [[_dot(p, g) for p in P] for g in gens]
    pivots = echelon_rows(cols, [[] for _ in cols])
    unimodular = len(pivots) == len(P) and all(c[i] == 1 for i, c in enumerate(cols))
    return RG4Result(tuple(zip(*cols)), unimodular)


# ---------------------------------------------------------------------------
# Cubic form, c2 form, Hodge numbers
# ---------------------------------------------------------------------------


def cubic_form(model: NormalCrossingModel, rg2: RG2Result) -> CubicTensor:
    """Cup-product tensor on the canonical RG^2 generators.

    Products across components vanish, so the covector of a pair of lifts
    is the two component covectors side by side.  Each lift's two halves
    are length-checked once; the covector is then built once for each pair
    x <= y among the generators and w = (D, -D), and entry (i, j, k) is
    g_i . cov[j, k].  The entries do not depend on the lift: w pairs to
    zero with all of G^2, since w.x.y = x1|_D . y1|_D - x2|_D . y2|_D and
    x1|_D = x2|_D (d-semistability puts w itself in G^2).  This is
    asserted for x, y among the generators and w, which by trilinearity
    covers every lift shifted by multiples of w.
    """
    y1, y2 = model.components
    halves = _halves(model, rg2.generators + (rg2.degenerate,))
    vecs = [l1 + l2 for l1, l2 in halves]
    n, w = len(rg2.generators), vecs[-1]
    cov = {}
    for j, k in itertools.combinations_with_replacement(range(n + 1), 2):
        (b1, b2), (c1, c2) = halves[j], halves[k]
        cov[j, k] = comp._cup(y1, b1, c1) + comp._cup(y2, b2, c2)
    for v in cov.values():
        if _dot(w, v):
            raise InternalInconsistencyError("cubic form depends on the NG^2 lift")
    entries = {
        (i + 1, j + 1, k + 1): _dot(vecs[i], cov[j, k])
        for i, j, k in itertools.combinations_with_replacement(range(n), 3)
    }
    return CubicTensor(n, entries)


def c2_form(model: NormalCrossingModel, rg2: RG2Result) -> tuple[int, ...]:
    """Second-Chern-class covector on the canonical RG^2 generators.

    For each lift (l1, l2) the value is l1.c2(Y1) + l2.c2(Y2); the
    correction term l1.D1^2 + l2.D2^2 = (l1, l2).w.w is computed and must
    vanish (it does exactly when d-semistability holds).
    """
    y1, y2 = model.components
    *halves, (w1, w2) = _halves(model, rg2.generators + (rg2.degenerate,))
    ww = comp._cup(y1, w1, w1) + comp._cup(y2, w2, w2)
    values = []
    for l1, l2 in halves:
        corr = _dot(l1 + l2, ww)
        if corr != 0:
            raise InternalInconsistencyError(
                "nonzero c2 correction term %d: broken d-semistability or bad lift" % corr
            )
        values.append(_dot(l1, y1.c2_covector) + _dot(l2, y2.c2_covector))
    return tuple(values)


def _check_riemann_roch(tensor: CubicTensor, c2: tuple[int, ...]) -> None:
    """Raise unless chi(O(x)) = x^3/6 + c2.x/12 is an integer on H^2(X, Z).

    In the binomial basis this is 2 T_iii + c_i = 0 mod 12 for each i and
    T_iij = T_ijj mod 2 for i != j (Wall's parity condition).
    """
    n, T = len(c2), tensor.entries  # keyed by sorted index triples
    bad = [(i,) for i in range(1, n + 1) if (2 * T.get((i, i, i), 0) + c2[i - 1]) % 12]
    bad += [
        (i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
        if (T.get((i, i, j), 0) - T.get((i, j, j), 0)) % 2
    ]
    if bad:
        raise InternalInconsistencyError(
            "cubic/c2 forms fail Riemann-Roch integrality at %s" % ", ".join(map(str, bad))
        )


def hodge_numbers(model: NormalCrossingModel) -> tuple[int, int, int]:
    """(h11, h12, euler) of the smoothing."""
    y1, y2 = model.components
    # k: rank of the image of H^2(Y1) + H^2(Y2) -> Pic(D).  Both restriction
    # maps send H to h and e_i to the center c_i, so the image is spanned by these
    k = matrix_rank([model.k3.polarization, *y1.centers, *y2.centers])
    h11 = y1.h2_rank + y2.h2_rank - k - 1
    h12 = 21 + y1.h12 + y2.h12 - k
    return h11, h12, 2 * (h11 - h12)


# ---------------------------------------------------------------------------
# Center moves
# ---------------------------------------------------------------------------


def move_top_center(model: NormalCrossingModel, from_index: int) -> NormalCrossingModel:
    """Move the last blow-up center of one component to the other side.

    The moved curve becomes the last center of the receiving component;
    the smoothing itself is unchanged.  A move keeps the Hodge numbers, the
    Picard rank, the consur verdict and the hypothesis statuses, but the
    cubic, c2 and gram are written in the canonical RG^2 generators, which
    depend on how the centers are split between Y1 and Y2, so a move (or
    swapping Y1 and Y2) can change them.  A swap preserves the forms up to
    an integral change of basis: the mirrored swapped generators are
    combinations of the original generators and (D, -D), and their
    transition matrix M gives cubic.change_basis(M) == swapped cubic.
    """
    if from_index not in (1, 2):
        raise ValueError("from_index must be 1 or 2")
    src = model.y1 if from_index == 1 else model.y2
    dst = model.y2 if from_index == 1 else model.y1
    if not src.centers:
        raise ValueError("component %d has no blow-up center to move" % from_index)
    moved = src.centers[-1]
    new_src = comp.build_component(src.base, model.k3, src.centers[:-1])
    new_dst = comp.build_component(dst.base, model.k3, dst.centers + (moved,))
    if from_index == 1:
        return NormalCrossingModel(new_src, new_dst)
    return NormalCrossingModel(new_dst, new_src)


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------


class SmoothingReport(
    namedtuple(
        "SmoothingReport",
        "hypothesis_verdicts picard_rank picard_generators cubic_tensor c2_covector "
        "consur_unimodular consur_gram h11 h12 euler",
    )
):
    """The whole pipeline's result.  picard_generators are (l1, l2) lift
    pairs and consur_gram is a tuple of rows; cubic_tensor (CubicTensor),
    c2_covector, consur_unimodular and consur_gram are None when
    d-semistability fails, and picard_rank is then -1."""

    __slots__ = ()

    @property
    def hypotheses_ok(self) -> bool:
        return all(v.ok for v in self.hypothesis_verdicts)

    @property
    def failed_hypotheses(self) -> tuple[str, ...]:
        return tuple(v.key for v in self.hypothesis_verdicts if not v.ok)


def analyze(model: NormalCrossingModel) -> SmoothingReport:
    """Run the whole pipeline; lattice steps are skipped on hypothesis failure."""
    verdicts = check_smoothability(model)
    h11, h12, euler = hodge_numbers(model)
    if not {v.key: v for v in verdicts}["d_semistability"].ok:
        return SmoothingReport(
            verdicts, -1, (), None, None, None, None, h11, h12, euler
        )
    rg2 = compute_rg2(model)
    if rg2.rank != h11:
        raise InternalInconsistencyError(
            "rank RG^2 = %d but h^2 bookkeeping gives %d" % (rg2.rank, h11)
        )
    rg4 = compute_rg4_and_consur(model, rg2)
    tensor = cubic_form(model, rg2)
    c2 = c2_form(model, rg2)
    _check_riemann_roch(tensor, c2)
    return SmoothingReport(
        verdicts,
        rg2.rank,
        tuple(_halves(model, rg2.generators)),
        tensor,
        c2,
        rg4.unimodular,
        rg4.gram,
        h11,
        h12,
        euler,
    )
