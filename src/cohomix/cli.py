"""Command-line front end.

Four groups: `grass` (Grassmannian presentations and Poincare
polynomials), `hilb` (Hilbert-scheme fixed points, embeddings, Betti
numbers), `b2` (regularity obstructions), `eq` (localization rank check).
Every command accepts --format text|json; identical inputs produce
byte-identical output.  Exit codes: 0 success, 2 invalid input, 3 internal
invariant violation.
"""

import argparse
import sys

from .algebra import IntegerPolynomial, _parse_int
from .errors import InternalInvariantViolation


def _emit(doc, text_lines, fmt):
    if fmt == "json":
        import json

        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


# Each handler returns (JSON document, text lines); main prints one of them.
# It imports what it calls when it runs, so a command loads only its own
# modules.


def _cmd_grass_presentation(args):
    from .grassmann import equivariant_presentation, ordinary_presentation

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
        " ".join(("variables:",) + pres.variables),
        " ".join(["degrees:"] + [str(d) for d in pres.degrees]),
    ]
    for var, rel in zip(pres.variables, relations):
        lines.append("relation %s: %s" % (var, rel))
    return doc, lines


def _cmd_grass_poincare(args):
    from .grassmann import (
        WeightSystem,
        generator_degrees,
        poincare_from_cells,
        poincare_from_regular_sequence,
    )

    # generator_degrees rejects invalid sizes, for both methods alike
    degrees = generator_degrees(args.n, args.k)
    if args.method == "cells":
        poly = poincare_from_cells(WeightSystem.principal(args.n), args.k)
    else:
        poly = poincare_from_regular_sequence(degrees)
    coeffs = poly.coefficient_list()
    doc = {"n": args.n, "k": args.k, "method": args.method, "coefficients": coeffs}
    return doc, [str(coeffs)]


def _cmd_hilb_fixed_points(args):
    from .gotzmann import enumerate_hilb_fixed_points

    rendered = [str(t) for t in enumerate_hilb_fixed_points(args.k)]
    doc = {"k": args.k, "count": len(rendered), "triples": rendered}
    return doc, ["count: %d" % len(rendered)] + rendered


def _cmd_hilb_embed(args):
    from .gotzmann import PartitionTriple, degree_k_part

    triple = PartitionTriple.parse(args.triple)
    image = degree_k_part(triple, args.k)
    doc = {
        "k": args.k,
        "triple": str(triple),
        "indices": list(image.indices),
        "ambient": image.n,
    }
    return doc, ["[%s]" % ", ".join(str(i) for i in image.indices)]


def _cmd_hilb_betti(args):
    from .filtration import hilb_betti

    table = hilb_betti(args.k)
    doc = table.to_json_dict()
    lines = [
        "betti: %s" % (list(table.betti),),
        "fixed_points: %d" % table.fixed_points,
    ]
    return doc, lines


def _fixed_set_images(k):
    # The torus action on Hilb_k(P^2) and the Gotzmann image of each of its
    # fixed points, in enumeration order.
    from .gotzmann import build_torus_action, degree_k_part, enumerate_hilb_fixed_points

    triples = enumerate_hilb_fixed_points(k)
    action = build_torus_action(k)
    return action, [degree_k_part(t, k) for t in triples]


def _cmd_hilb_schur_basis(args):
    from .filtration import hilb_betti, select_schur_basis

    action, images = _fixed_set_images(args.k)
    betti = hilb_betti(args.k, action).betti
    selection = select_schur_basis(
        images, action.weight_system(), p_max=2 * args.k, expected_betti=betti
    )
    doc = {
        "k": args.k,
        "betti": list(betti),
        "basis": {str(p): [str(mu) for mu in mus] for p, mus in selection.items()},
        "deficiencies": {
            str(p): {"achieved": a, "expected": e}
            for p, (a, e) in selection.deficiencies.items()
        },
    }
    lines = []
    for p, mus in selection.items():
        rendered = " ".join("(%s)" % mu for mu in mus) if mus else "-"
        lines.append("p=%d: %s" % (p, rendered))
    for p, (a, e) in selection.deficiencies.items():
        lines.append(
            "deficiency at p=%d: pure Schur rows give %d of %d" % (p, a, e)
        )
    return doc, lines


def _cmd_hilb_poincare(args):
    from .filtration import poincare_of_hilb

    poly = poincare_of_hilb(args.k)
    coeffs = poly.coefficient_list()
    doc = {"k": args.k, "variable": "t", "coefficients": coeffs}
    return doc, [str(coeffs)]


def _cmd_b2_check(args):
    from .filtration import b2_regularity_verdict

    coeffs = []
    for c in args.poincare.split(","):
        try:
            coeffs.append(_parse_int(c))
        except ValueError:
            message = "--poincare expects comma-separated integers, got %r"
            raise ValueError(message % (c,)) from None
    poly = IntegerPolynomial(coeffs)
    verdict = b2_regularity_verdict(poly)
    doc = {"coefficients": poly.coefficient_list(), "verdict": verdict}
    return doc, [verdict]


def _cmd_b2_jordan(args):
    from .gotzmann import jordan_regularity_check

    jt, regular = jordan_regularity_check(args.k)
    doc = {"k": args.k, "jordan_type": str(jt), "regular": regular}
    return doc, ["%s regular=%s" % (jt, "true" if regular else "false")]


def _cmd_eq_localization(args):
    from .equivariant import localization_rank_check

    action, points = _fixed_set_images(args.k)
    rank, full = localization_rank_check(points, action.weight_system())
    doc = {"k": args.k, "points": len(points), "rank": rank, "full": full}
    return doc, ["rank=%d full=%s" % (rank, "true" if full else "false")]


def _int_option(text):
    # argparse type of --n and --k: the strict integer of _parse_int
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % (text,)) from None


_N = ("--n", {"type": _int_option, "required": True})
_K = ("--k", {"type": _int_option, "required": True})


def _add_command(subparsers, name, func, summary, *arguments):
    # One subcommand: its own (flag, options) arguments, then --format,
    # which every command takes and its help lists last.
    p = subparsers.add_parser(name, help=summary)
    for flag, options in arguments:
        p.add_argument(flag, **options)
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p.set_defaults(func=func)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cohomix",
        description="Exact cohomology computations for Grassmannians and "
        "Hilbert schemes of points in the plane.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    def group(name, summary):
        return groups.add_parser(name, help=summary).add_subparsers(dest="command", required=True)

    grass = group("grass", "Grassmannian computations")
    _add_command(
        grass, "presentation", _cmd_grass_presentation, "cohomology ring presentation",
        _N, _K, ("--equivariant", {"action": "store_true"}),
    )
    _add_command(
        grass, "poincare", _cmd_grass_poincare, "Poincare polynomial in q",
        _N, _K, ("--method", {"choices": ("cells", "regular-sequence"), "default": "cells"}),
    )

    hilb = group("hilb", "Hilbert scheme of points in the plane")
    _add_command(hilb, "fixed-points", _cmd_hilb_fixed_points, "torus-fixed partition triples", _K)
    _add_command(
        hilb, "embed", _cmd_hilb_embed, "Gotzmann image of one fixed point",
        _K, ("--triple", {"required": True, "help": "e.g. \"1;1;\" for ((1),(1),())"}),
    )
    _add_command(hilb, "betti", _cmd_hilb_betti, "Betti numbers from the attracting cells", _K)
    _add_command(
        hilb, "schur-basis", _cmd_hilb_schur_basis,
        "rank jumps of pure Schur rows on the Gotzmann images, level by level; "
        "not a basis of H*(Hilb_k), and only shortfalls are reported",
        _K,
    )
    _add_command(hilb, "poincare", _cmd_hilb_poincare, "Poincare polynomial in t", _K)

    b2 = group("b2", "regularity obstructions")
    _add_command(
        b2, "check", _cmd_b2_check, "root-of-unity criterion on a Poincare polynomial",
        ("--poincare", {"required": True, "help": "comma-separated coefficients"}),
    )
    _add_command(
        b2, "jordan", _cmd_b2_jordan, "Jordan type of the nilpotent action on R_k", _K
    )

    eq = group("eq", "equivariant localization")
    _add_command(eq, "localization", _cmd_eq_localization, "rank check over the fixed points", _K)

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
        _emit(*args.func(args), args.format)
    except InternalInvariantViolation as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
