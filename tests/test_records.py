"""The result records are immutable named tuples.

Every record type is a ``collections.namedtuple`` subclass with empty
``__slots__``: fields cannot be assigned and no attribute can be added.
The validating records run their checks in ``__new__``, and ``_make``
(through which ``_replace`` goes) builds through ``__new__`` as well, so
no path yields an unchecked record.  Records replaced frozen dataclasses
to keep ``dataclasses`` (and ``inspect``, which it imports) out of every
CLI process; ``test_cli_import_skips_slow_stdlib_modules`` keeps them out.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cy_smoother.components import P3, FanoFamily, build_component
from cy_smoother.invariant_forms import CubicTensor, CyInvariantTriple
from cy_smoother.smoothing import (
    analyze,
    check_smoothability,
    compute_rg2,
    compute_rg4_and_consur,
)
from cy_smoother.surface import K3Model

from conftest import MU_TABLE, make_model

SRC = Path(__file__).resolve().parent.parent / "src"


def _records():
    """One instance of every record type, by type name."""
    k3 = K3Model.quartic()
    model = make_model(k3, [(5,)], [(3,)])
    rg2 = compute_rg2(model)
    mu = CubicTensor(3, MU_TABLE)
    recs = [
        k3,
        P3,
        model.y1,
        model,
        check_smoothability(model)[0],
        rg2,
        compute_rg4_and_consur(model, rg2),
        analyze(model),
        mu,
        CyInvariantTriple(2, 44),
    ]
    return {type(r).__name__: r for r in recs}


RECORDS = _records()


def test_every_record_type_is_covered():
    assert sorted(RECORDS) == sorted([
        "K3Model", "FanoFamily", "BlownComponent", "NormalCrossingModel",
        "HypothesisVerdict", "RG2Result", "RG4Result", "SmoothingReport",
        "CubicTensor", "CyInvariantTriple",
    ])


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable_and_rebuilds_by_keyword(name):
    rec = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = None  # empty __slots__ all the way up: no instance dict
    assert repr(rec).startswith("%s(%s=" % (name, rec._fields[0]))
    assert type(rec)(**rec._asdict()) == rec


def test_equal_fields_compare_equal():
    quartic = K3Model([[4]], ("h",), (1,))
    assert quartic == K3Model.quartic() and hash(quartic) == hash(K3Model.quartic())
    p3 = FanoFamily("P3", b2=1, index=4, minus_K_cubed=64, h12=0)
    assert p3 == P3 and hash(p3) == hash(P3)
    assert p3.index == 4  # the field, not tuple.index
    assert p3 != p3._replace(description="projective space")
    # entries are canonicalized on construction, so index order does not matter
    assert CubicTensor(2, {(2, 1, 1): 5}) == CubicTensor(2, {(1, 1, 2): 5})
    assert CubicTensor(2, {(2, 1, 1): 5}) != CubicTensor(2, {(1, 1, 2): 6})


def _other_k3_component():
    k3 = K3Model([[4, 1], [1, -2]], ("h", "l"), (1, 0))
    return build_component(P3, k3, [])


# (record name, fields that fail its checks, the ValueError message it raises)
INVALID = [
    ("K3Model", {"polarization": (0,)}, "polarization must have positive even square, got 0"),
    ("FanoFamily", {"index": 3}, "family 'P3': -K^3 = 64 is not divisible by index^2 = 9"),
    ("NormalCrossingModel", {"y2": _other_k3_component()},
     "components reference different K3 models"),
    ("CubicTensor", {"entries": {(1, 1, 4): 1}}, "bad tensor index (1, 1, 4) for rank 3"),
    ("CyInvariantTriple", {"rho_cubed": 0}, "rho^3 must be positive for an ample generator"),
]


@pytest.mark.parametrize("name, bad, message", INVALID, ids=[n for n, _, _ in INVALID])
def test_validating_record_cannot_be_built_unchecked(name, bad, message):
    rec = RECORDS[name]
    fields = {**rec._asdict(), **bad}
    match = "^%s$" % re.escape(message)
    with pytest.raises(ValueError, match=match):
        type(rec)(**fields)
    with pytest.raises(ValueError, match=match):
        rec._replace(**bad)
    with pytest.raises(ValueError, match=match):
        type(rec)._make(fields.values())


def test_replace_canonicalizes_cubic_entries():
    t = RECORDS["CubicTensor"]._replace(entries={(3, 2, 1): 7, (1, 1, 1): 2})
    assert list(t.entries.items()) == [((1, 1, 1), 2), ((1, 2, 3), 7)]


def test_cli_import_skips_slow_stdlib_modules():
    # dataclasses imports inspect (and ast, dis, tokenize) and fractions
    # imports decimal: both are paid again by every CLI process
    code = (
        "import sys; before = set(sys.modules); import cy_smoother.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "cy_smoother.cli" in loaded
    assert sorted(loaded & {"dataclasses", "inspect", "fractions", "decimal"}) == []
