"""Seeded generators of geometric degenerations for the benchmark.

Two families, each a pool of degeneration dicts in the JSON shape that
``cy_smoother.schemas.parse_degeneration`` reads, plus the construction
parameters the oracles need.

``sextic-wide``
    The K3 has Pic = <f1, f2>, f_i^2 = 0, f1.f2 = 3 and h = f1 + f2 (h^2 = 6).
    Every form value is a multiple of 6, so there are no (-2)-classes, and the
    elliptic pencils |f_i| have degree 3, so h is not hyperelliptic
    (Saint-Donat).  Bases are the delta = 6 Fano 3-folds Q, dP3 and X6.  With
    R = r1 + r2 and c copies of h, the centers are R - c fibers of each pencil
    and c copies of h, which sum to R h (d-semistability).  Every
    (r1, r2, c) appears SEXTIC_VARIANTS times per pool; the seed picks the
    center order and the side of each center.

``quartic-lines``
    The quartic K3 with j disjoint lines (h^2 = 4, h.l = 1, l^2 = -2),
    rank j + 1.  Both bases are P3; the lines are spread over the two sides
    and one side also blows up the residual R = 8h - sum l_i, so the centers
    sum to 8h.  R^2 = 256 - 18j >= 4 and R.l_i = 10.  Every j in 0..14
    appears VARIANTS_PER_J times per pool; the seed picks the side of each
    line, the side of R and the order on each side.

The diag(4, -2, ..., -2) family with centers e_i is not used: h.e_i = 0, so
those centers are not curves on the polarized K3.

Every generated input is checked by ``check_geometric`` before it is used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt

# Index r of each base (-K = r H); hand-copied from the standard Fano tables.
BASE_INDEX = {"P3": 4, "Q": 3, "dP3": 2, "X6": 1}

SEXTIC_BASES = ("Q", "dP3", "X6")  # delta = -K^3 / r^2 = 6 for each
SEXTIC_CLASSES = {"f1": (1, 0), "f2": (0, 1), "h": (1, 1)}

MAX_LINES = 14  # R^2 = 256 - 18 j stays >= 4
# Cases per configuration.  Op cost depends on the sides and order the seed
# picks, so several variants per configuration keep pool cost alike across seeds.
SEXTIC_VARIANTS = 8
VARIANTS_PER_J = 12


@dataclass(frozen=True)
class Case:
    """One generated degeneration and the parameters it was built from.

    ``sides`` names each center symbolically ("f1", "h", "l3", "R", ...) in
    blow-up order, per side; ``lines`` is j for the quartic family.
    """

    family: str
    doc: dict
    bases: tuple[str, str]
    sides: tuple[tuple[str, ...], tuple[str, ...]]
    lines: int = 0


def _k3_doc(gram, names, polarization):
    return {
        "gram": [list(r) for r in gram],
        "classes": list(names),
        "polarization": list(polarization),
    }


def _doc(k3, bases, sides, vec_of):
    return {
        "k3": k3,
        "Y1": {"base": bases[0], "centers": [list(vec_of[c]) for c in sides[0]]},
        "Y2": {"base": bases[1], "centers": [list(vec_of[c]) for c in sides[1]]},
    }


def _split(rng: random.Random, names):
    order = list(names)
    rng.shuffle(order)
    sides = ([], [])
    for name in order:
        sides[rng.randrange(2)].append(name)
    return tuple(sides[0]), tuple(sides[1])


def sextic_wide(seed: int) -> list[Case]:
    """SEXTIC_VARIANTS cases per (base1, base2, copies of h); seeded order and sides."""
    rng = random.Random("sextic-wide/%d" % seed)
    k3 = _k3_doc([[0, 3], [3, 0]], ("f1", "f2"), (1, 1))
    cases = []
    for b1 in SEXTIC_BASES:
        for b2 in SEXTIC_BASES:
            total = BASE_INDEX[b1] + BASE_INDEX[b2]
            for copies in range(total + 1):
                fibers = total - copies
                names = ["f1"] * fibers + ["f2"] * fibers + ["h"] * copies
                for _ in range(SEXTIC_VARIANTS):
                    sides = _split(rng, names)
                    doc = _doc(k3, (b1, b2), sides, SEXTIC_CLASSES)
                    cases.append(Case("sextic-wide", doc, (b1, b2), sides))
    rng.shuffle(cases)
    for case in cases:
        check_geometric(case)
    return cases


def quartic_lattice(j: int):
    """Gram matrix and class vectors of the quartic with j disjoint lines."""
    n = j + 1
    gram = [[0] * n for _ in range(n)]
    gram[0][0] = 4
    for i in range(1, n):
        gram[0][i] = gram[i][0] = 1
        gram[i][i] = -2
    vec_of = {"l%d" % i: tuple(int(k == i) for k in range(n)) for i in range(1, n)}
    vec_of["R"] = tuple([8] + [-1] * j)
    return gram, vec_of


def quartic_lines(seed: int) -> list[Case]:
    """VARIANTS_PER_J cases for each j in 0..MAX_LINES; seeded sides and order."""
    rng = random.Random("quartic-lines/%d" % seed)
    cases = []
    for j in range(MAX_LINES + 1):
        gram, vec_of = quartic_lattice(j)
        k3 = _k3_doc(gram, ["h"] + ["l%d" % i for i in range(1, j + 1)],
                     [1] + [0] * j)
        for _ in range(VARIANTS_PER_J):
            lines = ["l%d" % i for i in range(1, j + 1)]
            sides = [[], []]
            for name in lines:
                sides[rng.randrange(2)].append(name)
            sides[rng.randrange(2)].append("R")
            for side in sides:
                rng.shuffle(side)
            sides = (tuple(sides[0]), tuple(sides[1]))
            doc = _doc(k3, ("P3", "P3"), sides, vec_of)
            cases.append(Case("quartic-lines", doc, ("P3", "P3"), sides, j))
    rng.shuffle(cases)
    for case in cases:
        check_geometric(case)
    return cases


GENERATORS = {"sextic-wide": sextic_wide, "quartic-lines": quartic_lines}


# ---------------------------------------------------------------------------
# Validity checks
# ---------------------------------------------------------------------------


class NotGeometricError(ValueError):
    """A generated input does not describe a geometric degeneration."""


def _dot(gram, a, b):
    return sum(a[i] * gram[i][k] * b[k] for i in range(len(a)) for k in range(len(b)))


def det(rows) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for c in range(k + 1, n):
                m[i][c] = (m[i][c] * m[k][k] - m[i][k] * m[k][c]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def is_hyperbolic(gram, h) -> bool:
    """Signature (1, n - 1): h^2 > 0 and the form is negative definite on h-perp.

    With p a coordinate where h is nonzero, the vectors h^2 e_i - (h.e_i) h
    (i != p) form a basis of h-perp over Q; negative definiteness is tested
    by Sylvester's criterion on the negated Gram matrix of that basis.
    """
    n = len(gram)
    hh = _dot(gram, h, h)
    if hh <= 0:
        return False
    p = next(i for i, x in enumerate(h) if x)
    basis = []
    for i in range(n):
        if i == p:
            continue
        e = [int(k == i) for k in range(n)]
        he = _dot(gram, h, e)
        basis.append([hh * e[k] - he * h[k] for k in range(n)])
    neg = [[-_dot(gram, a, b) for b in basis] for a in basis]
    return all(det([r[:m] for r in neg[:m]]) > 0 for m in range(1, len(basis) + 1))


def _form_content(gram) -> int:
    """gcd of the even form's coefficients: every x^2 lies in 2 * content * Z."""
    n = len(gram)
    g = 0
    for i in range(n):
        g = gcd(g, gram[i][i] // 2)
        for k in range(i + 1, n):
            g = gcd(g, gram[i][k])
    return g


def _line_sum_masks(j: int, q_cap: int) -> dict[int, int]:
    """mask[B] has bit Q set iff some b in Z^j has sum B and sum b_i^2 = Q <= q_cap."""
    full = (1 << (q_cap + 1)) - 1
    steps = [b for b in range(-q_cap, q_cap + 1) if b * b <= q_cap]
    masks = {0: 1}
    for _ in range(j):
        nxt: dict[int, int] = {}
        for B, mask in masks.items():
            for b in steps:
                m = (mask << (b * b)) & full
                if m:
                    nxt[B + b] = nxt.get(B + b, 0) | m
        masks = nxt
    return masks


def quartic_roots(j: int, max_degree: int):
    """(a, B) of every root delta = a h + sum b_i l_i with 0 < h.delta <= max_degree.

    delta^2 = 4a^2 + 2aB - 2Q with B = sum b_i and Q = sum b_i^2, so a root
    has Q = 2a^2 + aB + 1 and h.delta = 4a + B.  Since Q >= 0 and
    B^2 + 8Q = t^2 + 8 for t = h.delta, B^2 <= t^2 + 8, and whether some b
    realises (B, Q) is read from the reachability masks.  Any class that is
    symmetric in the lines pairs with delta through (a, B) alone.
    """
    q_cap = (max_degree * max_degree + 8) // 8
    masks = _line_sum_masks(j, q_cap)
    for t in range(1, max_degree + 1):
        bound = isqrt(t * t + 8)
        for B in range(-bound, bound + 1):
            if (t - B) % 4:
                continue
            a = (t - B) // 4
            Q = 2 * a * a + a * B + 1
            if 0 <= Q <= q_cap and masks.get(B, 0) >> Q & 1:
                yield a, B


def _nef_violation(case: Case, gram, h, c) -> str | None:
    """A root delta with 0 < h.delta < h.c and c.delta < 0, described, or None."""
    hc = _dot(gram, h, c)
    if _form_content(gram) > 1:
        return None  # every square is a multiple of 2 * content: no roots
    if case.family != "quartic-lines":
        raise NotGeometricError("no root enumerator for family %s" % case.family)
    x, ys = c[0], c[1:]
    if len(set(ys)) > 1:
        raise NotGeometricError("class %r is not symmetric in the lines" % (c,))
    y = ys[0] if ys else 0
    j = case.lines
    for a, B in quartic_roots(j, hc - 1):
        # (x h + y sum l).(a h + sum b l) = 4xa + xB + ajy - 2yB
        value = 4 * x * a + x * B + a * j * y - 2 * y * B
        if value < 0:
            return "root (a=%d, B=%d) meets %r in %d" % (a, B, c, value)
    return None


def check_geometric(case: Case) -> None:
    """Raise NotGeometricError unless the case is a geometric degeneration.

    Checks: hyperbolic Gram; h.c > 0, c^2 >= -2 and even for every center;
    c.c' >= 0 for every pair of centers; centers sum to (r1 + r2) h; and each
    center with c^2 >= 0 is nef against the (-2)-roots delta with
    0 < h.delta < h.c.
    """
    k3 = case.doc["k3"]
    gram, h = k3["gram"], k3["polarization"]
    if not is_hyperbolic(gram, h):
        raise NotGeometricError("Gram matrix is not hyperbolic")
    centers = case.doc["Y1"]["centers"] + case.doc["Y2"]["centers"]
    for i, c in enumerate(centers):
        hc, cc = _dot(gram, h, c), _dot(gram, c, c)
        if hc <= 0:
            raise NotGeometricError("center %r has h.c = %d" % (c, hc))
        if cc < -2 or cc % 2:
            raise NotGeometricError("center %r has c^2 = %d" % (c, cc))
        for other in centers[i + 1:]:
            if _dot(gram, c, other) < 0:
                raise NotGeometricError("centers %r and %r meet negatively" % (c, other))
        if cc >= 0:
            bad = _nef_violation(case, gram, h, c)
            if bad:
                raise NotGeometricError("center %r is not nef: %s" % (c, bad))
    total = sum(BASE_INDEX[b] for b in case.bases)
    summed = [sum(c[k] for c in centers) for k in range(len(h))]
    if summed != [total * x for x in h]:
        raise NotGeometricError("centers sum to %r, not %d h" % (summed, total))
