"""The benchmark's workloads: seeded job lists with an oracle per job.

A job is one call into cohomix's public names.  `call(tracer)` makes the
call and returns the raw answer, `digest` turns it into plain data outside
the timed region, and `check` compares that with an answer from
oracle.py or tests/oracles.py, returning None or the reason it failed.
Jobs look cohomix names up at call time (`cx.name`), so the tracer's
wrappers see every call.

Why each workload exists, and which layer metrics it should move, is in
README.md next to this file.
"""

import json
import random
import subprocess
import sys
from math import comb

import oracle
from tracing import read_spans


class Job:
    __slots__ = ("name", "call", "digest", "check")

    def __init__(self, name, call, digest, check):
        self.name = name
        self.call = call
        self.digest = digest
        self.check = check


def expect(wanted):
    """Check that the digested answer equals `wanted`."""
    def check(got):
        return None if got == wanted else "got %r, expected %r" % (got, wanted)
    return check


def _selection_digest(selection):
    return (
        {p: [tuple(mu) for mu in mus] for p, mus in selection.items()},
        dict(selection.deficiencies),
    )


def _selection_check(box, betti):
    """Greedy Schur-row selection against the Goettsche Betti numbers.

    Schur classes of size p restrict to classes of degree at most 2p, so
    the rows picked up to size p span at most b_0 + ... + b_p dimensions;
    every shortfall against b_p is reported as a deficiency, and only those.
    """
    def check(digest):
        by_degree, deficiencies = digest
        chosen = 0
        budget = 0
        for p in sorted(by_degree):
            mus = by_degree[p]
            if len(set(mus)) != len(mus):
                return "repeated partition at p=%d" % p
            for mu in mus:
                if sum(mu) != p or len(mu) > box[0] or (mu and mu[0] > box[1]):
                    return "partition %r does not belong at p=%d" % (mu, p)
            chosen += len(mus)
            budget += betti[p] if p < len(betti) else 0
            if chosen > budget:
                return "%d rows up to p=%d exceed b_0+...+b_p = %d" % (chosen, p, budget)
        wanted = {
            p: (len(mus), betti[p])
            for p, mus in by_degree.items()
            if p < len(betti) and len(mus) < betti[p]
        }
        if deficiencies != wanted:
            return "deficiencies %r, expected %r" % (deficiencies, wanted)
        return None
    return check


def _weights(cx, rng, n):
    """Distinct weights 4i + 2 + (0, 1 or 2): seeded, but of one fixed size,
    so the integers, and so the work, stay the same from seed to seed."""
    return cx.WeightSystem([4 * i + 2 + rng.randint(0, 2) for i in range(n)])


# -- schur-rank ---------------------------------------------------------------

GRASSMANNIANS = ((6, 3), (7, 3), (8, 2))
SCHUR_HILB_K = 3


def schur_rank(seed, ctx):
    """Rank-route Betti numbers, localization ranks and Schur-basis selection:
    Schur evaluation feeding RowSpace.add on dense rows of growing integers."""
    cx, tests = ctx.cx, ctx.tests
    rng = random.Random(seed)
    jobs = []
    for n, k in GRASSMANNIANS:
        ws = _weights(cx, rng, n)
        points = cx.enumerate_fixed_subspaces(n, k)
        jobs.append(Job(
            "filtration_betti Gr(%d,%d)" % (n, k),
            lambda tracer, points=points, ws=ws: cx.filtration_betti(points, ws),
            lambda table: list(table.betti),
            expect(tests.gaussian_binomial(n, k)),
        ))
    k = SCHUR_HILB_K
    hilb_ws = cx.build_torus_action(k, rng.choice((k + 1, k + 2, k + 3))).weight_system()
    images = [cx.degree_k_part(t, k) for t in cx.enumerate_hilb_fixed_points(k)]
    betti = tests.goettsche_betti(k, 2 * k)
    jobs.append(Job(
        "localization_rank_check k=%d" % k,
        lambda tracer: cx.localization_rank_check(images, hilb_ws),
        tuple,
        expect((len(images), True)),
    ))
    jobs.append(Job(
        "select_schur_basis k=%d" % k,
        lambda tracer: cx.select_schur_basis(images, hilb_ws, p_max=2 * k, expected_betti=betti),
        _selection_digest,
        _selection_check((images[0].dim, images[0].n - images[0].dim), betti),
    ))
    rng.shuffle(jobs)
    return jobs


# -- presentation -------------------------------------------------------------

# (kind, n, k, top degree or None for the full profile)
PRESENTATIONS = (
    ("ordinary", 6, 3, None),
    ("ordinary", 7, 2, 9),
    ("ordinary", 8, 2, 8),
    ("ordinary", 7, 3, 9),
    ("equivariant", 5, 2, None),
    ("equivariant", 6, 2, 7),
)


def permuted_presentation(cx, pres, rng):
    """An isomorphic copy: variables and relations in a seeded order."""
    perm = list(range(len(pres.variables)))
    rng.shuffle(perm)
    variables = tuple(pres.variables[i] for i in perm)
    degrees = tuple(pres.degrees[i] for i in perm)
    relations = [
        cx.MultiPoly(variables, {tuple(e[i] for i in perm): c for e, c in rel.terms.items()})
        for rel in pres.relations
    ]
    rng.shuffle(relations)
    return cx.GradedPresentation(variables, degrees, relations)


def presentation(seed, ctx):
    """graded_dimension over seeded isomorphic copies of the presentations:
    RowSpace.add on sparse Macaulay rows with entries +-1 and +-2."""
    cx, tests = ctx.cx, ctx.tests
    rng = random.Random(seed)
    jobs = []
    for kind, n, k, top in PRESENTATIONS:
        gauss = tests.gaussian_binomial(n, k)
        if kind == "ordinary":
            pres = cx.ordinary_presentation(n, k)
            top = k * (n - k) if top is None else top
            profile = [gauss[d] if d < len(gauss) else 0 for d in range(top + 1)]
        else:
            pres = cx.equivariant_presentation(n, k)
            top = k * (n - k) + 1 if top is None else top
            profile = oracle.partial_sums(gauss, top)
        pres = permuted_presentation(cx, pres, rng)
        for d in range(top + 1):
            jobs.append(Job(
                "graded_dimension %s(%d,%d) d=%d" % (kind, n, k, d),
                lambda tracer, pres=pres, d=d: cx.graded_dimension(pres, d),
                int,
                expect(profile[d]),
            ))
    rng.shuffle(jobs)
    return jobs


# -- obstructions -------------------------------------------------------------

JORDAN_K = (3, 4)
HILB_POINCARE_K = (8, 9)
CELLS = (14, 6)
CYCLOTOMIC_BATCH = 6
VERDICT_DEGREE = 80


def _verdict(cx, on_circle):
    if on_circle is None:
        raise RuntimeError("Graeffe squaring did not settle the verdict")
    return cx.INCONCLUSIVE if on_circle else cx.NOT_REGULAR


def _verdict_input(rng, degree, plant):
    """A seeded product of cyclotomic polynomials of exactly `degree`, times,
    when `plant`, a monic cubic with |constant| >= 2, which has a root off
    the unit circle.  The degree is fixed because the cost of stripping
    grows with it."""
    factor = [rng.choice((2, -2, 3, -3)), rng.randint(-2, 2), rng.randint(-2, 2), 1]
    target = degree - 3 if plant else degree
    coeffs = [1]
    while True:
        phi = oracle.cyclotomic(rng.randint(3, 60))
        if len(coeffs) + len(phi) - 2 > target:
            break
        coeffs = oracle.multiply(coeffs, phi)
    while len(coeffs) - 1 < target:
        coeffs = oracle.multiply(coeffs, oracle.cyclotomic(2))
    return oracle.multiply(coeffs, factor) if plant else coeffs


def obstructions(seed, ctx):
    """Jordan types, Hilbert-scheme and cell Poincare polynomials with their
    verdicts, and a batch of verdicts on planted cyclotomic products."""
    cx, tests = ctx.cx, ctx.tests
    rng = random.Random(seed)
    jobs = []
    for k in JORDAN_K:
        jobs.append(Job(
            "jordan_regularity_check k=%d" % k,
            lambda tracer, k=k: cx.jordan_regularity_check(k),
            lambda answer: (tuple(answer[0]), answer[1]),
            expect((oracle.jordan_closed_form(k), k == 1)),
        ))
    for k in HILB_POINCARE_K:
        action = cx.build_torus_action(k, rng.choice((k + 1, k + 2, k + 3)))
        coeffs = oracle.interleave(tests.goettsche_betti(k, 2 * k))
        verdict = _verdict(cx, oracle.roots_all_on_unit_circle(coeffs))

        def call(tracer, k=k, action=action):
            poly = cx.poincare_of_hilb(k, action)
            return poly, cx.b2_regularity_verdict(poly)

        jobs.append(Job(
            "poincare_of_hilb k=%d g=%d + verdict" % (k, action.g),
            call,
            lambda answer: (answer[0].coefficient_list(), answer[1]),
            expect((coeffs, verdict)),
        ))
    n, k = CELLS
    ws = _weights(cx, rng, n)

    def cells(tracer):
        poly = cx.poincare_from_cells(ws, k)
        return poly, cx.b2_regularity_verdict(poly)

    # A Gaussian binomial is a product of cyclotomic polynomials.
    jobs.append(Job(
        "poincare_from_cells Gr(%d,%d) + verdict" % (n, k),
        cells,
        lambda answer: (answer[0].coefficient_list(), answer[1]),
        expect((tests.gaussian_binomial(n, k), cx.INCONCLUSIVE)),
    ))
    planted = [i % 2 == 1 for i in range(CYCLOTOMIC_BATCH)]
    rng.shuffle(planted)
    for i, plant in enumerate(planted):
        poly = cx.IntegerPolynomial(_verdict_input(rng, VERDICT_DEGREE, plant))
        jobs.append(Job(
            "b2_regularity_verdict #%d%s" % (i, " planted" if plant else ""),
            lambda tracer, poly=poly: cx.b2_regularity_verdict(poly),
            str,
            expect(cx.NOT_REGULAR if plant else cx.INCONCLUSIVE),
        ))
    rng.shuffle(jobs)
    return jobs


# -- cli ----------------------------------------------------------------------

def _run_child(ctx, argv, tracer):
    """Run one CLI command in a fresh interpreter; returns (exit code, stdout).

    Untraced it is `python -m cohomix.cli`; traced it is cli_child.py, which
    installs the same wrappers before calling cohomix.cli.main and writes
    its spans to a file that is read back here.
    """
    if tracer is None:
        cmd = [ctx.python, "-m", "cohomix.cli"] + argv
    else:
        spans = ctx.out / "child-spans.tsv"
        cmd = [ctx.python, str(ctx.here / "cli_child.py"), str(spans)] + argv
    proc = subprocess.Popen(cmd, env=ctx.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=ctx.job_limit)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if tracer is not None:
        tracer.adopt(read_spans(spans))
        spans.unlink()
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
    return proc.returncode, out


def _json_check(validate):
    """Exit code 0, then `validate(doc)` on the parsed JSON stdout."""
    def check(answer):
        code, out = answer
        if code != 0:
            return "exit code %d" % code
        return validate(json.loads(out))
    return check


def _equal_fields(**wanted):
    def validate(doc):
        got = {key: doc.get(key) for key in wanted}
        return None if got == wanted else "got %r, expected %r" % (got, wanted)
    return validate


def cli(seed, ctx):
    """Each subcommand once per pass, each in its own interpreter."""
    cx, tests = ctx.cx, ctx.tests
    rng = random.Random(seed)

    def presentation_doc(doc):
        n, k = 6, 3
        degrees = [(n - k) + j - i for i in range(1, n - k + 1) for j in range(1, k + 1)] + [1]
        if doc["degrees"] != degrees or len(doc["relations"]) != len(degrees) - 1:
            return "degrees %r with %d relations, expected %r with %d" % (
                doc["degrees"], len(doc["relations"]), degrees, len(degrees) - 1)
        return None

    def embed_doc(doc):
        ambient = comb(6 + 2, 2)
        idx = doc["indices"]
        if doc["ambient"] != ambient or len(idx) != ambient - 6 or idx != sorted(set(idx)):
            return "image %r in %r is not a (%d-6)-subset" % (idx, doc["ambient"], ambient)
        return None

    betti3 = tests.goettsche_betti(3, 6)
    selection_check = _selection_check((comb(5, 2) - 3, 3), betti3)

    def schur_basis_doc(doc):
        if doc["betti"] != betti3:
            return "betti %r, expected %r" % (doc["betti"], betti3)
        by_degree = {
            int(p): [tuple(int(x) for x in mu.split(",") if x) for mu in mus]
            for p, mus in doc["basis"].items()
        }
        deficiencies = {
            int(p): (v["achieved"], v["expected"]) for p, v in doc["deficiencies"].items()
        }
        return selection_check((by_degree, deficiencies))

    plant = rng.random() < 0.5
    coeffs = _verdict_input(rng, 50, plant)
    b2_verdict = cx.NOT_REGULAR if plant else cx.INCONCLUSIVE
    gauss12 = tests.gaussian_binomial(12, 5)
    betti8 = tests.goettsche_betti(8, 16)
    commands = [
        ("grass presentation", ["grass", "presentation", "--n", "6", "--k", "3", "--equivariant"],
         presentation_doc),
        ("grass poincare cells", ["grass", "poincare", "--n", "12", "--k", "5", "--method", "cells"],
         _equal_fields(coefficients=gauss12)),
        ("grass poincare regular-sequence",
         ["grass", "poincare", "--n", "12", "--k", "5", "--method", "regular-sequence"],
         _equal_fields(coefficients=gauss12)),
        ("hilb fixed-points", ["hilb", "fixed-points", "--k", "8"],
         _equal_fields(count=sum(betti8))),
        ("hilb embed", ["hilb", "embed", "--k", "6", "--triple", "2,1;1;1,1"], embed_doc),
        ("hilb betti", ["hilb", "betti", "--k", "3"],
         _equal_fields(betti=betti3, fixed_points=sum(betti3))),
        ("hilb schur-basis", ["hilb", "schur-basis", "--k", "3"], schur_basis_doc),
        ("hilb poincare", ["hilb", "poincare", "--k", "8"],
         _equal_fields(coefficients=oracle.interleave(betti8))),
        ("b2 check", ["b2", "check", "--poincare=" + ",".join(str(c) for c in coeffs)],
         _equal_fields(verdict=b2_verdict)),
        ("b2 jordan", ["b2", "jordan", "--k", "4"],
         _equal_fields(jordan_type=",".join(str(s) for s in oracle.jordan_closed_form(4)),
                       regular=False)),
        ("eq localization", ["eq", "localization", "--k", "3"],
         _equal_fields(points=sum(betti3), rank=sum(betti3), full=True)),
    ]
    jobs = [
        Job(
            name,
            lambda tracer, argv=argv + ["--format", "json"]: _run_child(ctx, argv, tracer),
            tuple,
            _json_check(validate),
        )
        for name, argv, validate in commands
    ]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "schur-rank": schur_rank,
    "presentation": presentation,
    "obstructions": obstructions,
    "cli": cli,
}
