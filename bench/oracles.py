"""Output oracles that never call the library.

Generated workloads are checked against the paper's formulas evaluated on
the construction parameters of each case:

    h11 = s + 1 - k,   h12 = 21 + h12(V1) + h12(V2) + sum g_i - k,
    e = 2 (h11 - h12), picard_rank = h11,

with k the rank of the lattice spanned by h and the centers, and g_i the
genus c_i^2 / 2 + 1 of each center.  The RG^2 x RG^4 pairing must be
unimodular (its determinant is recomputed here) and every hypothesis must
pass or be assumed.  On quartic-lines the smoothing has Picard rank one
with (rho^3, rho.c2) = (2, 44).

The paper-cli commands are checked against the paper's published values,
copied by hand.
"""

from __future__ import annotations

from collections import Counter

from families import Case, det

# h^{1,2} of each base, hand-copied from the standard Fano tables.
BASE_H12 = {"P3": 0, "Q": 0, "dP3": 5, "X6": 20}


def _genus(case: Case, name: str) -> int:
    if case.family == "sextic-wide":
        return 4 if name == "h" else 1  # h^2 = 6; fibers have f^2 = 0
    return 0 if name.startswith("l") else 129 - 9 * case.lines  # R^2 = 256 - 18 j


def _lattice_rank(case: Case) -> int:
    if case.family == "sextic-wide":
        return 2 if any(n != "h" for side in case.sides for n in side) else 1
    return case.lines + 1


def expected_hodge(case: Case) -> tuple[int, int, int]:
    """(h11, h12, euler) from the construction parameters."""
    names = case.sides[0] + case.sides[1]
    k = _lattice_rank(case)
    h11 = len(names) + 1 - k
    h12 = (21 + BASE_H12[case.bases[0]] + BASE_H12[case.bases[1]]
           + sum(_genus(case, n) for n in names) - k)
    return h11, h12, 2 * (h11 - h12)


def _hypotheses_problems(rep) -> list[str]:
    """The paper's four smoothing hypotheses must each pass or be assumed."""
    bad = [h["key"] for h in rep["hypotheses"] if h["status"] not in ("pass", "assumed")]
    out = ["hypotheses failed: %s" % ", ".join(bad)] if bad else []
    if len(rep["hypotheses"]) != 4:
        out.append("%d hypothesis verdicts, expected 4" % len(rep["hypotheses"]))
    if rep["hypotheses_ok"] is not True:
        out.append("hypotheses_ok is not true")
    return out


def check_generated(case: Case, rep: dict) -> list[str]:
    """Problems with one smoothing report of a generated case (empty: correct)."""
    problems = _hypotheses_problems(rep)
    h11, h12, euler = expected_hodge(case)
    for key, want in (("h11", h11), ("h12", h12), ("euler", euler), ("picard_rank", h11)):
        if rep.get(key) != want:
            problems.append("%s = %r, expected %d" % (key, rep.get(key), want))
    if len(rep["picard_generators"]) != h11:
        problems.append("%d Picard generators, expected %d"
                        % (len(rep["picard_generators"]), h11))
    gram = rep["consur_gram"] or []
    if rep["consur_unimodular"] is not True:
        problems.append("pairing not reported unimodular")
    if len(gram) != h11 or any(len(r) != h11 for r in gram) or abs(det(gram)) != 1:
        problems.append("pairing Gram %r is not a unimodular %dx%d matrix" % (gram, h11, h11))
    tensor = rep["cubic_tensor"] or {}
    if tensor.get("rank") != h11 or len(rep["c2_covector"] or ()) != h11:
        problems.append("cubic or c2 does not have rank %d" % h11)
    if case.family == "quartic-lines":
        if tensor.get("entries") != {"111": 2}:
            problems.append("cubic %r, expected {111: 2}" % tensor.get("entries"))
        if rep["c2_covector"] != [44]:
            problems.append("c2 %r, expected [44]" % rep["c2_covector"])
    return problems


# ---------------------------------------------------------------------------
# The Makefile's golden commands, with the paper's values
# ---------------------------------------------------------------------------

EXAMPLES = "src/cy_smoother/data/examples/"

MU_ENTRIES = {"111": 2, "112": 5, "113": 2, "122": 5, "123": 10, "133": -4,
              "222": 5, "223": 10, "233": 20, "333": -32}
NU_ENTRIES = dict(MU_ENTRIES, **{"333": -40})
PAIR1_ENTRIES = {"111": 2, "112": 5, "122": 5, "222": 5}

XI_TRIPLES = {
    "Xi1": (44, 92, 68), "Xi2": (44, 92, 66), "Xi3": (44, 92, 64),
    "Xi4": (15, 66, 75), "Xi5": (8, 56, 88), "Xi6": (8, 56, 60), "Xi7": (5, 50, 92),
}
GROUPS = {
    ("Xi1", "Xi2", "Xi3", "Z4"), ("Xi4", "Z3"), ("Xi5", "Xi6", "Z2"), ("Xi7", "Z1"),
}


def _smooth(rep, entries, h11, h12, extra=()):
    problems = _hypotheses_problems(rep)
    got = {
        "picard_rank": rep["picard_rank"],
        "cubic": rep["cubic_tensor"]["entries"],
        "hodge": (rep["h11"], rep["h12"], rep["euler"]),
        "unimodular": rep["consur_unimodular"],
    }
    want = {"picard_rank": h11, "cubic": entries,
            "hodge": (h11, h12, 2 * (h11 - h12)), "unimodular": True}
    problems += ["%s = %r, expected %r" % (k, got[k], want[k]) for k in want
                 if got[k] != want[k]]
    problems += [msg for ok, msg in extra if not ok]
    return problems


def _quick(rep):
    return _smooth(rep, {"111": 2}, 1, 149, [
        (rep["picard_generators"] == [{"Y1": [1], "Y2": [1, 0]}], "generator is not (H, pi* H)"),
        (rep["c2_covector"] == [44], "c2 is not [44]"),
    ])


def _pair1(rep):
    return _smooth(rep, PAIR1_ENTRIES, 2, 90, [
        (rep["c2_covector"][1:2] == [50], "second c2 value is not 50"),
        (rep["consur_gram"] == [[1, 0], [1, 1]], "pairing Gram is not [[1,0],[1,1]]"),
    ])


def _moved(doc):
    want = {
        "k3": {"gram": [[4]], "classes": ["h"], "polarization": [1]},
        "Y1": {"base": "P3", "centers": [[5], [3]]},
        "Y2": {"base": "P3", "centers": []},
    }
    return [] if doc == want else ["moved model %r, expected %r" % (doc, want)]


def _aronhold(T):
    def check(out):
        if (out["S"], out["T"], out["s_is_zero"]) != (0, T, True):
            return ["(S, T) = (%r, %r), expected (0, %d)" % (out["S"], out["T"], T)]
        return []
    return check


def _rr(out):
    return [] if out["embedding_dimension_N"] == 199 else ["N is not 199"]


def _search(out):
    profile = sorted(Counter(p["delta"] for p in out["pairs"]).values(), reverse=True)
    if out["count"] == 26 and profile == [6, 6, 3, 3, 3, 1, 1, 1, 1, 1]:
        return []
    return ["search gave %d pairs with profile %r" % (out["count"], profile)]


def _cy(triple):
    def check(out):
        got = (out["rho_cubed"], out["rho_c2"], out["h12"], out["picard_rank_one"])
        return [] if got == triple + (True,) else ["cy gave %r, expected %r" % (got, triple)]
    return check


def _groups(out):
    groups = {tuple(sorted(g["members"])): (g["rho_cubed"], g["rho_c2"]) for g in out["groups"]}
    problems = [] if set(groups) == GROUPS else ["groups %r" % sorted(groups)]
    for members, key in groups.items():
        for m in members:
            if m in XI_TRIPLES and XI_TRIPLES[m][:2] != key:
                problems.append("%s grouped at %r, expected %r" % (m, key, XI_TRIPLES[m][:2]))
    return problems


GOLDEN = (
    (("smooth", EXAMPLES + "quick.json"), _quick),
    (("smooth", EXAMPLES + "pair1_a.json"), _pair1),
    (("smooth", EXAMPLES + "pair1_b.json"), _pair1),
    (("move-top", EXAMPLES + "pair1_a.json", "--from", "2"), _moved),
    (("smooth", EXAMPLES + "triple_mu.json"), lambda r: _smooth(r, MU_ENTRIES, 3, 83)),
    (("smooth", EXAMPLES + "triple_nu.json"), lambda r: _smooth(r, NU_ENTRIES, 3, 83)),
    (("invariants", "cubic", "--file", EXAMPLES + "mu_tensor.json"), _aronhold(-86400)),
    (("invariants", "cubic", "--file", EXAMPLES + "nu_tensor.json"), _aronhold(-38400)),
    (("invariants", "rr", "--rho3", "2", "--rhoc2", "44", "--n", "8"), _rr),
    (("fano", "search", "--rank-one"), _search),
    (("fano", "cy", "--v1", "X22", "--v2", "MM-12.3-15"), _cy(XI_TRIPLES["Xi1"])),
    (("fano", "cy", "--v1", "X2", "--v2", "dP1"), _cy((3, 42, 103))),
    (("fano", "groups"), _groups),
)
"""The 13 commands of the Makefile's golden target, each with its oracle."""
