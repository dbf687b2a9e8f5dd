"""Command-line front end.

Subcommands::

    smooth FILE                 run the full smoothing pipeline on a
                                degeneration description
    move-top FILE --from {1,2}  move the top blow-up center to the other
                                component and emit the new description
    fano search [--rank-one]    delta-matched pairs of Fano families
    fano cy --v1 ID --v2 ID     closed-form Calabi-Yau invariants of a pair
    fano groups [--all-known]   Hilbert-scheme deformation groups
    invariants cubic --file F   Aronhold S/T of a rank-3 cubic tensor
    invariants rr --rho3 A --rhoc2 B --n N
                                chi(O(n rho)) and the embedding dimension

Output is JSON by default (--format table for aligned text).  Exit codes:
0 success, 2 bad input, 3 smoothing hypothesis failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .catalog import (
    cy_invariants,
    find_family,
    known_cy_table,
    load_catalog,
    search_pairs,
    xi_examples,
)
from .invariant_forms import (
    CyInvariantTriple,
    aronhold_ST,
    deformation_group,
    rr_dimension,
)
from .schemas import (
    degeneration_to_dict,
    dump_json,
    load_degeneration,
    load_tensor,
    report_to_dict,
)
from .smoothing import analyze, move_top_center

CATALOG_ENV = "CY_SMOOTHER_CATALOG"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3

# The -6 is the scale of the bracket form T = [abc][abd][ace][bcf][def]^2
# (see invariant_forms); the wording is part of the report bytes.
ARONHOLD_NOTE = (
    "S is classically normalized (S = abcm - m^4 on a x^3 + b y^3 + c z^3 "
    "+ 6 m xyz); T carries the calibrated factor -6 against the classical "
    "a^2 b^2 c^2 - 20 a b c m^3 - 8 m^6. Normalization-free data: the "
    "S = 0 flag and ratios of T values."
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cy-smoother",
        description="Exact invariants of Calabi-Yau 3-folds smoothed from "
        "two-component normal crossings.",
    )
    parser.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_smooth = sub.add_parser("smooth", help="analyze a degeneration description")
    p_smooth.add_argument("file", help="degeneration JSON file")

    p_move = sub.add_parser("move-top", help="move the top blow-up center across")
    p_move.add_argument("file", help="degeneration JSON file")
    p_move.add_argument("--from", dest="from_index", type=int, required=True,
                        choices=(1, 2), help="component losing its top center")

    p_fano = sub.add_parser("fano", help="Fano catalog pipeline")
    fano_sub = p_fano.add_subparsers(dest="fano_command", required=True)
    p_search = fano_sub.add_parser("search", help="delta-matched pairs")
    p_search.add_argument("--rank-one", action="store_true",
                          help="restrict to rank-one x rank-one pairs")
    p_cy = fano_sub.add_parser("cy", help="Calabi-Yau invariants of a pair")
    p_cy.add_argument("--v1", required=True, help="first family id")
    p_cy.add_argument("--v2", required=True, help="second family id")
    p_groups = fano_sub.add_parser("groups", help="deformation groups")
    p_groups.add_argument("--all-known", action="store_true",
                          help="include every known reference Calabi-Yau")

    p_inv = sub.add_parser("invariants", help="form invariants and dimension counts")
    inv_sub = p_inv.add_subparsers(dest="inv_command", required=True)
    p_cubic = inv_sub.add_parser("cubic", help="Aronhold S and T of a cubic tensor")
    p_cubic.add_argument("--file", required=True, help="tensor JSON file")
    p_rr = inv_sub.add_parser("rr", help="Riemann-Roch dimension count")
    p_rr.add_argument("--rho3", type=int, required=True)
    p_rr.add_argument("--rhoc2", type=int, required=True)
    p_rr.add_argument("--n", type=int, required=True)

    for p in (p_smooth, p_move, p_search, p_cy, p_groups, p_cubic, p_rr):
        p.add_argument("--format", choices=("json", "table"), default="json",
                       help="output format (default: json)")
    # only the subcommands that read the Fano catalog take --catalog
    for p in (p_smooth, p_move, p_search, p_cy, p_groups):
        p.add_argument("--catalog", default=None,
                       help="Fano catalog file (default: bundled; env %s)" % CATALOG_ENV)

    return parser


def _resolve_catalog(args):
    path = args.catalog or os.environ.get(CATALOG_ENV) or None
    return load_catalog(path)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(dump_json(payload))
    else:
        _emit_table(payload)


def _emit_table(payload, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(payload, dict):
        width = max((len(str(k)) for k in payload), default=0)
        for key in payload:
            val = payload[key]
            if isinstance(val, (dict, list)):
                sys.stdout.write("%s%s:\n" % (pad, key))
                _emit_table(val, indent + 1)
            else:
                sys.stdout.write("%s%-*s  %s\n" % (pad, width + 1, str(key) + ":", val))
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                _emit_table(item, indent)
                sys.stdout.write("\n" if indent == 0 else "")
            else:
                sys.stdout.write("%s- %s\n" % (pad, item))
    else:
        sys.stdout.write("%s%s\n" % (pad, payload))


def _cmd_smooth(args) -> int:
    catalog = _resolve_catalog(args)
    model = load_degeneration(args.file, catalog)
    report = analyze(model)
    _emit(report_to_dict(report), args.format)
    if not report.hypotheses_ok:
        sys.stderr.write(
            "smoothing hypotheses failed: %s\n" % ", ".join(report.failed_hypotheses)
        )
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _cmd_move_top(args) -> int:
    catalog = _resolve_catalog(args)
    model = load_degeneration(args.file, catalog)
    moved = move_top_center(model, args.from_index)
    _emit(degeneration_to_dict(moved), args.format)
    return EXIT_OK


def _cmd_fano(args) -> int:
    catalog = _resolve_catalog(args)
    if args.fano_command == "search":
        pairs = search_pairs(catalog, require_rank_one=args.rank_one)
        payload = {
            "rank_one_only": bool(args.rank_one),
            "count": len(pairs),
            "pairs": [
                {"v1": a.id, "v2": b.id, "delta": a.delta} for a, b in pairs
            ],
        }
        _emit(payload, args.format)
        return EXIT_OK
    if args.fano_command == "cy":
        v1 = find_family(catalog, args.v1)
        v2 = find_family(catalog, args.v2)
        triple, rank_one, note = cy_invariants(v1, v2)
        payload = {
            "v1": v1.id,
            "v2": v2.id,
            "delta": v1.delta,
            "rho_cubed": triple.rho_cubed,
            "rho_c2": triple.rho_c2,
            "h12": triple.h12,
            "picard_rank_one": rank_one,
            "note": note,
        }
        _emit(payload, args.format)
        return EXIT_OK
    # groups
    items = list(xi_examples(catalog))
    if args.all_known:
        items += list(known_cy_table())
    else:
        items += [(label, t) for label, t in known_cy_table()
                  if label in ("Z1", "Z2", "Z3", "Z4")]
    groups = deformation_group(items)
    payload = {
        "groups": [
            {
                "rho_cubed": g["rho_cubed"],
                "rho_c2": g["rho_c2"],
                "members": list(g["members"]),
            }
            for g in groups
        ]
    }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_invariants(args) -> int:
    if args.inv_command == "cubic":
        tensor = load_tensor(args.file)
        S, T = aronhold_ST(tensor)
        payload = {
            "S": S,
            "T": T,
            "s_is_zero": S == 0,
            "normalization_note": ARONHOLD_NOTE,
        }
        _emit(payload, args.format)
        return EXIT_OK
    inv = CyInvariantTriple(args.rho3, args.rhoc2)
    chi = rr_dimension(inv, args.n)
    payload = {
        "rho_cubed": args.rho3,
        "rho_c2": args.rhoc2,
        "n": args.n,
        "chi": chi,
        "embedding_dimension_N": chi - 1,
    }
    _emit(payload, args.format)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "smooth":
            return _cmd_smooth(args)
        if args.command == "move-top":
            return _cmd_move_top(args)
        if args.command == "fano":
            return _cmd_fano(args)
        if args.command == "invariants":
            return _cmd_invariants(args)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INPUT
    parser.error("unknown command")  # pragma: no cover
    return EXIT_INPUT  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
