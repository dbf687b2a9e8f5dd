"""Fano 3-fold catalog and the closed-form Calabi-Yau invariants of a pair.

Two Fano families can sit on opposite sides of an admissible normal
crossing exactly when they share the matching invariant

    delta = -K^3 / r^2,

the degree of the common polarized K3.  For such a pair the smoothed
Calabi-Yau has closed-form invariants (writing r1, r2 for the indices and
using -K.c2 = 24 on any Fano 3-fold):

    rho^3   = (1/r1 + 1/r2) delta
    rho.c2  = 24/r1 + 24/r2 + (r1 + r2) delta
    h12     = 22 + h12(V1) + h12(V2) + (r1 + r2)^2 delta / 2 - max(b2)

and it has Picard number one iff min(b2) = 1.

The shipped catalog contains the 17 rank-one deformation families plus
the specific higher-rank entries needed by the worked examples; h12 for
the higher-rank rows is back-solved from the target invariants and marked
for audit against the Mori-Mukai tables in the provenance column.
"""

from __future__ import annotations

import csv
import json
import math
from importlib import resources
from pathlib import Path
from typing import Iterable

from .components import FanoFamily
from .invariant_forms import CyInvariantTriple


def default_catalog_path() -> Path:
    return Path(resources.files("cy_smoother").joinpath("data/fano_catalog.csv"))


def _field(row, field: str, from_json: bool, kind=int):
    """row[field] as ``kind``; a JSON row without the key and a short CSV row name the field."""
    # None in a CSV row is csv.DictReader's filler for a short row
    if field not in row or (row[field] is None and not from_json):
        raise ValueError("field %r is missing" % field)
    value = row[field]
    if not from_json:
        return kind(value)  # CSV fields are strings
    # a JSON value arrives typed: int() would truncate 4.9 to 4, read true as
    # 1 and " 4" as 4, and str() would read null as "None"
    if type(value) is not kind:
        raise TypeError("field %r must be %s, got %r"
                        % (field, "an integer" if kind is int else "a string", value))
    return value


def _reject_unknown(fields, where: str) -> None:
    """A field other than FanoFamily's seven (a misspelling), or named twice, is never dropped."""
    seen = set()
    for f in fields:
        if f not in FanoFamily._fields:
            raise ValueError("%s has unknown field %r" % (where, f))
        if f in seen:
            raise ValueError("%s names field %r twice" % (where, f))
        seen.add(f)


def unique_keys(pairs) -> dict:
    """``object_pairs_hook`` for ``json.loads``: a repeated key raises, not keeps one value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        raise ValueError("duplicate key %r" % next(k for k, _ in pairs if k in seen or seen.add(k)))
    return obj


def load_catalog(path=None) -> tuple[FanoFamily, ...]:
    """Load and validate a catalog file (CSV or JSON list of rows)."""
    path = Path(path) if path is not None else default_catalog_path()
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except OSError as exc:
        raise ValueError("cannot read catalog file %s: %s" % (path, exc.strerror)) from exc
    from_json = path.suffix.lower() == ".json" or text.lstrip().startswith("[")
    if from_json:
        try:
            rows = json.loads(text, object_pairs_hook=unique_keys)  # a blank file is malformed too
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise ValueError("%s: catalog JSON is malformed: %s" % (path, exc)) from exc
        if not isinstance(rows, list):
            raise ValueError("catalog JSON must be a list of rows")
        numbered = enumerate(rows, start=1)  # list position
    else:
        reader = csv.DictReader(text.splitlines())
        header = reader.fieldnames or ()
        missing = [f for f in FanoFamily._fields[:5] if f not in header]  # the last two optional
        if missing:
            raise ValueError("%s: catalog header lacks %s" % (path, ", ".join(missing)))
        _reject_unknown(header, "%s: catalog header" % path)
        numbered = ((reader.line_num, row) for row in reader)  # file line
    families = []
    seen = set()
    for lineno, row in numbered:
        if from_json:
            if not isinstance(row, dict):
                raise ValueError("catalog row %d is not an object" % lineno)
            _reject_unknown(row, "catalog row %d" % lineno)
        if None in row:  # csv.DictReader files the extra fields of a long row under None
            raise ValueError("catalog row %d has more fields than the header" % lineno)
        try:
            family_id = _field(row, "id", from_json, str).strip()
            if not family_id:
                raise ValueError("field 'id' is blank")
            fam = FanoFamily(
                id=family_id,
                b2=_field(row, "b2", from_json),
                index=_field(row, "index", from_json),
                minus_K_cubed=_field(row, "minus_K_cubed", from_json),
                h12=_field(row, "h12", from_json),
                provenance=str(row.get("provenance", "") or ""),
                description=str(row.get("description", "") or ""),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError("catalog row %d is malformed: %s" % (lineno, exc)) from exc
        # find_family matches ids case-insensitively, so ids equal up to case collide
        if fam.id.lower() in seen:
            raise ValueError("catalog row %d: duplicate id %r" % (lineno, fam.id))
        seen.add(fam.id.lower())
        families.append(fam)
    return tuple(families)


def find_family(catalog: Iterable[FanoFamily], family_id: str) -> FanoFamily:
    wanted = family_id.strip().lower()
    for fam in catalog:
        if fam.id.lower() == wanted:
            return fam
    raise ValueError("unknown Fano family id %r" % family_id)


def search_pairs(
    catalog: Iterable[FanoFamily], require_rank_one: bool = False
) -> tuple[tuple[FanoFamily, FanoFamily], ...]:
    """All unordered pairs (repetition allowed) with equal delta."""
    rows = [f for f in catalog if f.rank_one] if require_rank_one else list(catalog)
    by_delta: dict[int, list[FanoFamily]] = {}
    for f in rows:
        by_delta.setdefault(f.delta, []).append(f)
    pairs = []
    for delta in sorted(by_delta):
        group = sorted(by_delta[delta], key=lambda f: f.id)
        for i, f1 in enumerate(group):
            for f2 in group[i:]:
                pairs.append((f1, f2))
    return tuple(pairs)


def cy_invariants(v1: FanoFamily, v2: FanoFamily):
    """Closed-form invariants of the Calabi-Yau smoothed from the pair.

    Returns (CyInvariantTriple, picard_rank_one, note).  All divisions
    are checked to be exact; a failure indicates bad catalog data.
    """
    if v1.delta != v2.delta:
        raise ValueError(
            "delta mismatch: %s has %d, %s has %d"
            % (v1.id, v1.delta, v2.id, v2.delta)
        )
    delta = v1.delta
    r1, r2 = v1.index, v2.index
    values = []
    # rho^3 = delta/r1 + delta/r2, rho.c2 = 24/r1 + 24/r2 + (r1+r2) delta and
    # h12 = 22 + h12_1 + h12_2 + (r1+r2)^2 delta/2 - max b2, each as num/den
    for name, num, den in (
        ("rho^3", delta * (r1 + r2), r1 * r2),
        ("rho.c2", (r1 + r2) * (24 + r1 * r2 * delta), r1 * r2),
        ("h12", 2 * (22 + v1.h12 + v2.h12 - max(v1.b2, v2.b2)) + (r1 + r2) ** 2 * delta, 2),
    ):
        q, rem = divmod(num, den)
        if rem:
            g = math.gcd(num, den)
            raise ValueError(
                "pair (%s, %s): %s = %d/%d is not an integer; catalog data error"
                % (v1.id, v2.id, name, num // g, den // g)
            )
        values.append(q)
    rho3, rho_c2, h12 = values
    rank_one = min(v1.b2, v2.b2) == 1
    if (v1.b2 == 1 and v2.b2 == 1) or v1.h12 == 0 or v2.h12 == 0:
        note = ""
    else:
        note = (
            "existence of a matching polarized K3 pair is assumed "
            "(moduli surjectivity needs one rigid side)"
        )
    triple = CyInvariantTriple(rho3, rho_c2, h12)
    return triple, rank_one, note


_KNOWN_CY = (
    ("X(8)", CyInvariantTriple(2, 44), "degree-8 hypersurface in P(1,1,1,1,4)"),
    ("X(6)", CyInvariantTriple(3, 42, 103), "degree-6 hypersurface in P(1,1,1,1,2)"),
    ("Z1", CyInvariantTriple(5, 50), "quintic 3-fold in P^4"),
    ("Z2", CyInvariantTriple(8, 56), "complete intersection (2,4) in P^5"),
    ("Z3", CyInvariantTriple(15, 66, 76), "rank-one Calabi-Yau with rho^3 = 15"),
    ("Z4", CyInvariantTriple(44, 92, 65), "rank-one Calabi-Yau with rho^3 = 44"),
)


def known_cy_table() -> tuple[tuple[str, CyInvariantTriple], ...]:
    """Reference Picard-rank-one Calabi-Yau 3-folds used for comparisons."""
    return tuple((label, triple) for label, triple, _ in _KNOWN_CY)


# The seven new rank-one examples: (label, id of V1, id of V2).
XI_PAIRS = (
    ("Xi1", "X22", "MM-12.3-15"),
    ("Xi2", "X22", "MM-12.3-16"),
    ("Xi3", "X22", "MM-12.4-6"),
    ("Xi4", "dP5", "MM-12.3-4"),
    ("Xi5", "Q", "MM-12.3-2"),
    ("Xi6", "Q", "P1xS1"),
    ("Xi7", "P3", "MM-12.3-1"),
)


def xi_examples(catalog: Iterable[FanoFamily]):
    """The seven constructed rank-one Calabi-Yau examples with their triples."""
    catalog = list(catalog)
    out = []
    for label, id1, id2 in XI_PAIRS:
        v1 = find_family(catalog, id1)
        v2 = find_family(catalog, id2)
        triple, rank_one, _ = cy_invariants(v1, v2)
        if not rank_one:
            raise ValueError("example %s is not Picard rank one" % label)
        out.append((label, triple))
    return tuple(out)
