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

Each subcommand is one handler, bound to its parser with
``set_defaults(run=...)``, that returns ``(payload, failed_hypotheses)``
and prints nothing.  ``main`` writes the payload in one write, as JSON by
default (--format table for aligned text), and maps the outcome to the
exit code: 0 success, 2 bad input (any ValueError), 3 smoothing
hypothesis failure (the report is still written, then one stderr line),
1 when the reader of stdout has gone (e.g. ``| head``), without a
traceback.
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
EXIT_BROKEN_PIPE = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3

# The wording is part of the report bytes (goldens 07/08); see invariant_forms.
ARONHOLD_NOTE = (
    "S is classically normalized (S = abcm - m^4 on a x^3 + b y^3 + c z^3 "
    "+ 6 m xyz); T is -6 times the classical a^2 b^2 c^2 - 20 a b c m^3 "
    "- 8 m^6 (the scale of the bracket form [abc][abd][ace][bcf][def]^2). "
    "Normalization-free data: the S = 0 flag and ratios of T values."
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
    p_smooth.set_defaults(run=_smooth)

    p_move = sub.add_parser("move-top", help="move the top blow-up center across")
    p_move.add_argument("file", help="degeneration JSON file")
    p_move.add_argument("--from", dest="from_index", type=int, required=True,
                        choices=(1, 2), help="component losing its top center")
    p_move.set_defaults(run=_move_top)

    p_fano = sub.add_parser("fano", help="Fano catalog pipeline")
    fano_sub = p_fano.add_subparsers(dest="fano_command", required=True)
    p_search = fano_sub.add_parser("search", help="delta-matched pairs")
    p_search.add_argument("--rank-one", action="store_true",
                          help="restrict to rank-one x rank-one pairs")
    p_search.set_defaults(run=_fano_search)
    p_cy = fano_sub.add_parser("cy", help="Calabi-Yau invariants of a pair")
    p_cy.add_argument("--v1", required=True, help="first family id")
    p_cy.add_argument("--v2", required=True, help="second family id")
    p_cy.set_defaults(run=_fano_cy)
    p_groups = fano_sub.add_parser("groups", help="deformation groups")
    p_groups.add_argument("--all-known", action="store_true",
                          help="include every known reference Calabi-Yau")
    p_groups.set_defaults(run=_fano_groups)

    p_inv = sub.add_parser("invariants", help="form invariants and dimension counts")
    inv_sub = p_inv.add_subparsers(dest="inv_command", required=True)
    p_cubic = inv_sub.add_parser("cubic", help="Aronhold S and T of a cubic tensor")
    p_cubic.add_argument("--file", required=True, help="tensor JSON file")
    p_cubic.set_defaults(run=_invariants_cubic)
    p_rr = inv_sub.add_parser("rr", help="Riemann-Roch dimension count")
    p_rr.add_argument("--rho3", type=int, required=True)
    p_rr.add_argument("--rhoc2", type=int, required=True)
    p_rr.add_argument("--n", type=int, required=True)
    p_rr.set_defaults(run=_invariants_rr)

    for p in (p_smooth, p_move, p_search, p_cy, p_groups, p_cubic, p_rr):
        p.add_argument("--format", choices=("json", "table"), default="json",
                       help="output format (default: json)")
    # only the subcommands that read the Fano catalog take --catalog
    for p in (p_smooth, p_move, p_search, p_cy, p_groups):
        p.add_argument("--catalog", default=None,
                       help="Fano catalog file (default: bundled; env %s)" % CATALOG_ENV)
    # a missing subcommand is reported by metavar, else by the internal dest;
    # this is the metavar argparse shows in --help anyway
    for action in (sub, fano_sub, inv_sub):
        action.metavar = "{%s}" % ",".join(action.choices)
    return parser


def _resolve_catalog(args):
    path = args.catalog or os.environ.get(CATALOG_ENV) or None
    return load_catalog(path)


def _table_lines(payload, pad: str = "") -> list[str]:
    """Aligned "key: value" lines, "- item" for list scalars; a blank line
    separates the dicts and lists that are items of one list, at any depth."""
    lines = []
    if isinstance(payload, dict):
        width = max((len(str(k)) for k in payload), default=0)
        for key, val in payload.items():
            if isinstance(val, (dict, list)):
                lines += ["%s%s:" % (pad, key)] + _table_lines(val, pad + "  ")
            else:
                # rstrip: an empty value (a passing hypothesis's note) leaves only padding
                lines.append(("%s%-*s  %s" % (pad, width + 1, str(key) + ":", val)).rstrip())
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                if lines:
                    lines.append("")
                lines += _table_lines(item, pad)
            else:
                lines.append("%s- %s" % (pad, item))
    return lines


def _smooth(args):
    report = analyze(load_degeneration(args.file, _resolve_catalog(args)))
    return report_to_dict(report), report.failed_hypotheses


def _move_top(args):
    model = load_degeneration(args.file, _resolve_catalog(args))
    return degeneration_to_dict(move_top_center(model, args.from_index)), ()


def _fano_search(args):
    pairs = search_pairs(_resolve_catalog(args), require_rank_one=args.rank_one)
    return {
        "rank_one_only": bool(args.rank_one),
        "count": len(pairs),
        "pairs": [{"v1": a.id, "v2": b.id, "delta": a.delta} for a, b in pairs],
    }, ()


def _fano_cy(args):
    catalog = _resolve_catalog(args)
    v1 = find_family(catalog, args.v1)
    v2 = find_family(catalog, args.v2)
    triple, rank_one, note = cy_invariants(v1, v2)
    return {
        "v1": v1.id,
        "v2": v2.id,
        "delta": v1.delta,
        "rho_cubed": triple.rho_cubed,
        "rho_c2": triple.rho_c2,
        "h12": triple.h12,
        "picard_rank_one": rank_one,
        "note": note,
    }, ()


def _fano_groups(args):
    items = list(xi_examples(_resolve_catalog(args)))
    items += [(label, t) for label, t in known_cy_table()
              if args.all_known or label in ("Z1", "Z2", "Z3", "Z4")]
    # members as a list, so --format table prints one "- label" line each
    return {
        "groups": [
            {"rho_cubed": g["rho_cubed"], "rho_c2": g["rho_c2"], "members": list(g["members"])}
            for g in deformation_group(items)
        ]
    }, ()


def _invariants_cubic(args):
    S, T = aronhold_ST(load_tensor(args.file))
    return {"S": S, "T": T, "s_is_zero": S == 0, "normalization_note": ARONHOLD_NOTE}, ()


def _invariants_rr(args):
    if args.n < 1:  # h^0 = chi needs n rho ample (Kodaira vanishing)
        raise ValueError("--n must be at least 1, got %d" % args.n)
    chi = rr_dimension(CyInvariantTriple(args.rho3, args.rhoc2), args.n)
    return {
        "rho_cubed": args.rho3,
        "rho_c2": args.rhoc2,
        "n": args.n,
        "chi": chi,
        "embedding_dimension_N": chi - 1,
    }, ()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, failed = args.run(args)
        if args.format == "json":
            sys.stdout.write(dump_json(payload))
        else:
            sys.stdout.write("".join(line + "\n" for line in _table_lines(payload)))
        sys.stdout.flush()
    except BrokenPipeError:
        # As in the SIGPIPE note of the `signal` docs: send what is left to
        # devnull, so the flush at interpreter exit raises no second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INPUT
    if failed:
        sys.stderr.write("smoothing hypotheses failed: %s\n" % ", ".join(failed))
        return EXIT_HYPOTHESIS
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
