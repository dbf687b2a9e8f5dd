"""JSON inputs and outputs.

Degeneration files look like

    {"k3": {"gram": [[4]], "classes": ["h"], "polarization": [1]},
     "Y1": {"base": "P3", "centers": [[5]]},
     "Y2": {"base": "P3", "centers": [[3]]}}

with component bases resolved against the Fano catalog (the base must
have b2 = 1).  Cubic tensors are {"rank": 3, "entries": {"111": 2, ...}}
with symmetric completion applied on load.  Each index key is written as
its digits ("123") when every index is at most 9, and comma-separated
("1,2,10") otherwise; the parser reads both forms at any rank.  All
emitted JSON is deterministic: sorted keys, fixed indentation, trailing
newline.

Degeneration inputs are capped so that analysis time stays bounded on
hostile input: at most MAX_CENTERS centers per component, a K3 lattice
of rank at most MAX_K3_RANK, and integers of absolute value at most
MAX_ENTRY in the Gram matrix, the polarization and the centers.  Larger
inputs are rejected, and so is a field that the schema does not name, so
that a misspelt key is never silently ignored, and a key repeated in one
object, whose last value would win.  Every rejection is a
ValueError whose message starts with the location: the file path for
invalid JSON, else a path such as "Y1.centers[0]" ("$" is the top
level, "Y1" the component that ``build_component`` rejected).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Iterable

from .catalog import find_family, unique_keys
from .components import BlownComponent, FanoFamily, build_component
from .invariant_forms import CubicTensor
from .smoothing import TORSION_NOTE, NormalCrossingModel, SmoothingReport
from .surface import K3Model


MAX_CENTERS = 32
MAX_K3_RANK = 20  # a complex K3 has Picard rank at most h^{1,1} = 20
MAX_ENTRY = 1000


def _located(message: str, location: str) -> ValueError:
    """The error for bad input at location: its message starts "location: "."""
    return ValueError("%s: %s" % (location, message))


def _expect(cond: bool, message: str, location: str):
    if not cond:
        raise _located(message, location)


def _check_fields(raw, required: tuple, optional: tuple, location: str):
    """raw must be an object with every required field and no unknown one."""
    _expect(isinstance(raw, dict), "expected an object", location)
    for key in required:
        _expect(key in raw, "missing field %r" % key, location)
    for key in raw:
        if key not in required and key not in optional:
            raise _located("unknown field %r" % (key,), location)


def _int_list(raw, location: str) -> list[int]:
    _expect(isinstance(raw, list), "expected a list of integers", location)
    for i, v in enumerate(raw):
        # the location and message are formatted only for an entry that fails
        if not isinstance(v, int) or isinstance(v, bool):
            raise _located("expected an integer", "%s[%d]" % (location, i))
        if abs(v) > MAX_ENTRY:
            raise _located("|%d| exceeds the entry cap %d" % (v, MAX_ENTRY),
                           "%s[%d]" % (location, i))
    return list(raw)


def parse_k3(raw, location: str = "k3") -> K3Model:
    _check_fields(raw, ("gram", "classes", "polarization"), (), location)
    gram_rows = raw["gram"]
    _expect(isinstance(gram_rows, list) and gram_rows, "gram must be a nonempty matrix",
            location + ".gram")
    _expect(len(gram_rows) <= MAX_K3_RANK,
            "lattice rank %d exceeds the cap %d" % (len(gram_rows), MAX_K3_RANK),
            location + ".gram")
    rows = [_int_list(r, "%s.gram[%d]" % (location, i)) for i, r in enumerate(gram_rows)]
    n = len(rows)
    _expect(all(len(r) == n for r in rows), "gram must be square", location + ".gram")
    classes = raw["classes"]
    _expect(
        isinstance(classes, list) and all(isinstance(c, str) for c in classes),
        "classes must be a list of strings",
        location + ".classes",
    )
    pol = _int_list(raw["polarization"], location + ".polarization")
    try:
        return K3Model(rows, tuple(classes), tuple(pol))
    except ValueError as exc:
        raise _located(str(exc), location) from exc


def parse_component(
    raw, k3: K3Model, catalog: Iterable[FanoFamily], location: str
) -> BlownComponent:
    _check_fields(raw, ("base",), ("centers",), location)
    _expect(isinstance(raw["base"], str), "base must be a catalog id string",
            location + ".base")
    try:
        family = find_family(catalog, raw["base"])
    except ValueError as exc:
        raise _located(str(exc), location + ".base") from exc
    centers_raw = raw.get("centers", [])
    _expect(isinstance(centers_raw, list), "centers must be a list of vectors",
            location + ".centers")
    _expect(len(centers_raw) <= MAX_CENTERS,
            "%d centers exceed the cap %d" % (len(centers_raw), MAX_CENTERS),
            location + ".centers")
    centers = [
        _int_list(c, "%s.centers[%d]" % (location, i)) for i, c in enumerate(centers_raw)
    ]
    try:
        return build_component(family, k3, centers)
    except ValueError as exc:
        raise _located(str(exc), location) from exc


def parse_degeneration(raw, catalog: Iterable[FanoFamily]) -> NormalCrossingModel:
    _expect(isinstance(raw, dict), "expected a top-level object", "$")
    _check_fields(raw, ("k3", "Y1", "Y2"), (), "$")
    k3 = parse_k3(raw["k3"], "k3")
    y1 = parse_component(raw["Y1"], k3, catalog, "Y1")
    y2 = parse_component(raw["Y2"], k3, catalog, "Y2")
    # both components are built on the one parsed k3, so the K3 check cannot fail
    return NormalCrossingModel(y1, y2)


def load_degeneration(path, catalog: Iterable[FanoFamily]) -> NormalCrossingModel:
    return parse_degeneration(_load_json(path), catalog)


def degeneration_to_dict(model: NormalCrossingModel) -> dict:
    k3 = model.k3
    return {
        "k3": {
            "gram": list(map(list, k3.gram)),
            "classes": list(k3.class_names),
            "polarization": list(k3.polarization),
        },
        "Y1": {
            "base": model.y1.base.id,
            "centers": [list(c) for c in model.y1.centers],
        },
        "Y2": {
            "base": model.y2.base.id,
            "centers": [list(c) for c in model.y2.centers],
        },
    }


def _parse_entry_key(key: str, location: str) -> tuple[int, ...]:
    try:
        if "," in key:
            parts = tuple(int(p) for p in key.split(","))
        else:
            parts = tuple(int(ch) for ch in key)
    except ValueError as exc:
        raise _located("bad tensor index key %r" % key, location) from exc
    if len(parts) != 3:
        raise _located("tensor index %r does not have three entries" % key, location)
    return parts


def parse_tensor(raw, location: str = "$") -> CubicTensor:
    _check_fields(raw, ("rank", "entries"), (), location)
    rank = raw["rank"]
    _expect(isinstance(rank, int) and not isinstance(rank, bool) and rank >= 0,
            "rank must be a nonnegative integer",
            location + ".rank")
    entries_raw = raw["entries"]
    _expect(isinstance(entries_raw, dict), "entries must be an object", location + ".entries")
    entries = {}
    for key, val in entries_raw.items():
        idx = _parse_entry_key(str(key), location + ".entries")
        _expect(isinstance(val, int) and not isinstance(val, bool),
                "entry %r must be an integer" % key, location + ".entries")
        if entries.setdefault(idx, val) != val:  # one index spelt two ways
            raise _located("conflicting values for symmetric entry %r" % (tuple(sorted(idx)),),
                           location)
    try:
        return CubicTensor(rank, entries)
    except ValueError as exc:
        raise _located(str(exc), location) from exc


def load_tensor(path) -> CubicTensor:
    return parse_tensor(_load_json(path))


def tensor_to_dict(tensor: CubicTensor) -> dict:
    # keys are sorted triples, so k[2] is the largest index of each
    return {
        "rank": tensor.rank,
        "entries": {
            ("%d%d%d" if k[2] <= 9 else "%d,%d,%d") % k: v for k, v in tensor.entries.items()
        },
    }


def report_to_dict(report: SmoothingReport) -> dict:
    out = {
        "torsion_note": TORSION_NOTE,
        "hypotheses": [
            {
                "key": v.key,
                "description": v.description,
                "status": v.status,
                "note": v.note,
            }
            for v in report.hypothesis_verdicts
        ],
        "hypotheses_ok": report.hypotheses_ok,
        "h11": report.h11,
        "h12": report.h12,
        "euler": report.euler,
        "picard_rank": report.picard_rank,
        "picard_generators": [
            {"Y1": list(l1), "Y2": list(l2)} for l1, l2 in report.picard_generators
        ],
        "cubic_tensor": None
        if report.cubic_tensor is None
        else tensor_to_dict(report.cubic_tensor),
        "c2_covector": None if report.c2_covector is None else list(report.c2_covector),
        "consur_unimodular": report.consur_unimodular,
        "consur_gram": None if report.consur_gram is None else list(map(list, report.consur_gram)),
    }
    return out


def dump_json(payload) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline.

    The bytes are exactly ``json.dumps(payload, sort_keys=True, indent=2)``
    plus a newline, for payloads built from dicts with str keys, lists,
    tuples, str, int, bool and None; any other type raises TypeError.
    """
    return _json_text(payload, "\n") + "\n"


def _json_text(obj, newline: str) -> str:
    """JSON text of obj; newline is a line break plus the current indent."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        # the encoder raises TypeError on a key that is not a str
        items = [_encode_str(k) + ": " + _json_text(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if all(type(x) is int for x in obj):
            items = map(int.__repr__, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _load_json(path):
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except OSError as exc:
        raise _located("cannot read file %s: %s" % (p, exc.strerror), "$") from exc
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise _located("invalid JSON: %s" % exc, str(p)) from exc
