"""Command-line front end.

Four groups: `grass` (Grassmannian presentations and Poincare
polynomials), `hilb` (Hilbert-scheme fixed points, embeddings, Betti
numbers), `b2` (regularity obstructions), `eq` (localization rank check).
Every command accepts --format text|json; identical inputs produce
byte-identical output.  Exit codes: 0 success, 2 invalid input, 3 internal
invariant violation.
"""

import argparse
import json
import sys

from .algebra import IntegerPolynomial
from .equivariant import localization_rank_check
from .errors import InternalInvariantViolation
from .filtration import (
    b2_regularity_verdict,
    filtration_betti,
    hilb_betti,
    poincare_of_hilb,
    select_schur_basis,
)
from .gotzmann import (
    PartitionTriple,
    build_torus_action,
    degree_k_part,
    enumerate_hilb_fixed_points,
    jordan_regularity_check,
)
from .grassmann import (
    WeightSystem,
    equivariant_presentation,
    generator_degrees,
    ordinary_presentation,
    poincare_from_cells,
    poincare_from_regular_sequence,
)


def _emit(doc, text_lines, fmt):
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_grass_presentation(args):
    pres = (
        equivariant_presentation(args.n, args.k)
        if args.equivariant
        else ordinary_presentation(args.n, args.k)
    )
    relations = [rel.canonical_str() for rel in pres.relations]
    doc = {
        "variables": list(pres.variables),
        "degrees": list(pres.degrees),
        "relations": relations,
    }
    lines = [
        "variables: " + " ".join(pres.variables),
        "degrees: " + " ".join(str(d) for d in pres.degrees),
    ]
    for var, rel in zip(pres.variables, relations):
        if var == "v":
            continue
        lines.append("relation %s: %s" % (var, rel))
    _emit(doc, lines, args.format)
    return 0


def _cmd_grass_poincare(args):
    # generator_degrees rejects invalid sizes, for both methods alike
    degrees = generator_degrees(args.n, args.k)
    if args.method == "cells":
        poly = poincare_from_cells(WeightSystem.principal(args.n), args.k)
    else:
        poly = poincare_from_regular_sequence(degrees, 1)
    coeffs = poly.coefficient_list()
    doc = {"n": args.n, "k": args.k, "method": args.method, "coefficients": coeffs}
    _emit(doc, [str(coeffs)], args.format)
    return 0


def _cmd_hilb_fixed_points(args):
    triples = enumerate_hilb_fixed_points(args.k)
    doc = {"k": args.k, "count": len(triples), "triples": [str(t) for t in triples]}
    lines = ["count: %d" % len(triples)] + [str(t) for t in triples]
    _emit(doc, lines, args.format)
    return 0


def _cmd_hilb_embed(args):
    triple = PartitionTriple.parse(args.triple)
    image = degree_k_part(triple, args.k)
    doc = {
        "k": args.k,
        "triple": str(triple),
        "indices": list(image.indices),
        "ambient": image.n,
    }
    _emit(doc, ["[%s]" % ", ".join(str(i) for i in image.indices)], args.format)
    return 0


def _cmd_hilb_betti(args):
    table = hilb_betti(args.k)
    doc = table.to_json_dict()
    lines = [
        "betti: %s" % (list(table.betti),),
        "fixed_points: %d" % table.fixed_points,
    ]
    _emit(doc, lines, args.format)
    return 0


def _cmd_hilb_schur_basis(args):
    triples = enumerate_hilb_fixed_points(args.k)
    action = build_torus_action(args.k)
    betti = filtration_betti(triples, action=action).betti
    images = [degree_k_part(t, args.k) for t in triples]
    selection = select_schur_basis(
        images, action.weight_system(), p_max=2 * args.k, expected_betti=betti
    )
    doc = {
        "k": args.k,
        "betti": list(betti),
        "basis": {str(p): [str(mu) for mu in mus] for p, mus in selection.items()},
        "deficiencies": {
            str(p): {"achieved": a, "expected": e}
            for p, (a, e) in sorted(selection.deficiencies.items())
        },
    }
    lines = []
    for p, mus in selection.items():
        rendered = " ".join("(%s)" % mu for mu in mus) if mus else "-"
        lines.append("p=%d: %s" % (p, rendered))
    for p, (a, e) in sorted(selection.deficiencies.items()):
        lines.append(
            "deficiency at p=%d: pure Schur rows give %d of %d" % (p, a, e)
        )
    _emit(doc, lines, args.format)
    return 0


def _cmd_hilb_poincare(args):
    poly = poincare_of_hilb(args.k)
    coeffs = poly.coefficient_list()
    doc = {"k": args.k, "variable": "t", "coefficients": coeffs}
    _emit(doc, [str(coeffs)], args.format)
    return 0


def _cmd_b2_check(args):
    try:
        coeffs = [int(c) for c in args.poincare.split(",")]
    except ValueError:
        raise ValueError("--poincare expects comma-separated integers") from None
    poly = IntegerPolynomial(coeffs)
    verdict = b2_regularity_verdict(poly)
    doc = {"coefficients": poly.coefficient_list(), "verdict": verdict}
    _emit(doc, [verdict], args.format)
    return 0


def _cmd_b2_jordan(args):
    jt, regular = jordan_regularity_check(args.k)
    doc = {"k": args.k, "jordan_type": str(jt), "regular": regular}
    _emit(doc, ["%s regular=%s" % (jt, "true" if regular else "false")], args.format)
    return 0


def _cmd_eq_localization(args):
    triples = enumerate_hilb_fixed_points(args.k)
    action = build_torus_action(args.k)
    ws = action.weight_system()
    points = [degree_k_part(t, args.k) for t in triples]
    rank, full = localization_rank_check(points, ws)
    doc = {"k": args.k, "points": len(points), "rank": rank, "full": full}
    _emit(doc, ["rank=%d full=%s" % (rank, "true" if full else "false")], args.format)
    return 0


def _add_format(parser):
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cohomix",
        description="Exact cohomology computations for Grassmannians and "
        "Hilbert schemes of points in the plane.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    grass = groups.add_parser("grass", help="Grassmannian computations")
    grass_sub = grass.add_subparsers(dest="command", required=True)

    p = grass_sub.add_parser("presentation", help="cohomology ring presentation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--equivariant", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_grass_presentation)

    p = grass_sub.add_parser("poincare", help="Poincare polynomial in q")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("cells", "regular-sequence"), default="cells")
    _add_format(p)
    p.set_defaults(func=_cmd_grass_poincare)

    hilb = groups.add_parser("hilb", help="Hilbert scheme of points in the plane")
    hilb_sub = hilb.add_subparsers(dest="command", required=True)

    p = hilb_sub.add_parser("fixed-points", help="torus-fixed partition triples")
    p.add_argument("--k", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_hilb_fixed_points)

    p = hilb_sub.add_parser("embed", help="Gotzmann image of one fixed point")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--triple", required=True, help="e.g. \"1;1;\" for ((1),(1),())")
    _add_format(p)
    p.set_defaults(func=_cmd_hilb_embed)

    p = hilb_sub.add_parser("betti", help="Betti numbers from the fixed-point filtration")
    p.add_argument("--k", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_hilb_betti)

    p = hilb_sub.add_parser("schur-basis", help="greedy Schur-row basis with deficiencies")
    p.add_argument("--k", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_hilb_schur_basis)

    p = hilb_sub.add_parser("poincare", help="Poincare polynomial in t")
    p.add_argument("--k", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_hilb_poincare)

    b2 = groups.add_parser("b2", help="regularity obstructions")
    b2_sub = b2.add_subparsers(dest="command", required=True)

    p = b2_sub.add_parser("check", help="root-of-unity criterion on a Poincare polynomial")
    p.add_argument("--poincare", required=True, help="comma-separated coefficients")
    _add_format(p)
    p.set_defaults(func=_cmd_b2_check)

    p = b2_sub.add_parser("jordan", help="Jordan type of the nilpotent action on R_k")
    p.add_argument("--k", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_b2_jordan)

    eq = groups.add_parser("eq", help="equivariant localization")
    eq_sub = eq.add_subparsers(dest="command", required=True)

    p = eq_sub.add_parser("localization", help="rank check over the fixed points")
    p.add_argument("--k", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_eq_localization)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse turns an option value of "--" into [], past type= and
    # choices=; every option here takes exactly one value
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error("argument --%s: expected one value" % name)
    try:
        return args.func(args)
    except InternalInvariantViolation as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
