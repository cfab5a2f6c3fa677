"""The package's cold start, each case in a fresh interpreter: `import
cohomix` loads none of its modules, a public name or a module loads on
first access, and a CLI command loads only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cohomix

# The public names, in order, as the package exported them when it still
# imported every module up front.
PUBLIC = [
    "BettiTable",
    "BoxViolation",
    "ConditionViolated",
    "FixedSubspace",
    "GradedPresentation",
    "INCONCLUSIVE",
    "IndexOutOfRange",
    "IntegerPolynomial",
    "InternalInvariantViolation",
    "InvalidDegree",
    "InvalidDimensions",
    "MultiPoly",
    "NOT_REGULAR",
    "NotNilpotent",
    "NotPolynomial",
    "Partition",
    "PartitionTriple",
    "RationalMatrix",
    "SchurBasisSelection",
    "TorusAction",
    "WeightSystem",
    "b2_regularity_verdict",
    "build_torus_action",
    "degree_k_part",
    "enumerate_fixed_subspaces",
    "enumerate_hilb_fixed_points",
    "equivariant_presentation",
    "filtration_betti",
    "graded_dimension",
    "graded_dimensions",
    "hilb_betti",
    "hilb_minus_cell_dimension",
    "jordan_regularity_check",
    "jordan_type",
    "localization_rank_check",
    "matrix_rank",
    "minus_cell_dimension",
    "monomial_basis",
    "monomial_label",
    "nilpotent_matrix_on_Rk",
    "ordinary_presentation",
    "partitions_in_box",
    "poincare_from_cells",
    "poincare_from_regular_sequence",
    "poincare_of_hilb",
    "schur_evaluate",
    "select_schur_basis",
    "specialize_v",
    "strip_cyclotomic_factors",
    "tangent_weights",
    "w_degree",
]

# What a fresh interpreter has loaded beyond its start-up: the cohomix
# modules and fractions, sorted.
LOADED = (
    "sorted(m for m in set(sys.modules) - before"
    " if m.startswith('cohomix.') or m == 'fractions')"
)


def fresh(*args):
    """Run a fresh interpreter on the package under test; returns
    (exit code, stdout, stderr)."""
    env = dict(os.environ)
    src = str(Path(cohomix.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def fresh_json(code):
    """Run `code` in a fresh interpreter, with `before` bound to the
    modules loaded at start-up, and parse what it prints as JSON."""
    returncode, out, err = fresh("-c", "import json, sys\nbefore = set(sys.modules)\n" + code)
    assert returncode == 0, err
    return json.loads(out)


def test_public_names_are_unchanged():
    assert cohomix.__all__ == PUBLIC


def test_import_loads_no_module_and_no_fractions():
    assert fresh_json("import cohomix\nprint(json.dumps(%s))" % LOADED) == []


def test_grass_command_loads_no_hilbert_scheme_module():
    code, out, err = fresh(
        "-X", "importtime", "-m", "cohomix.cli", "grass", "poincare", "--n", "4", "--k", "2"
    )
    assert code == 0, err
    assert out == "[1, 1, 2, 1, 1]\n"
    # -X importtime writes one stderr line per module imported, its name last
    imported = {line.rsplit("|", 1)[1].strip() for line in err.splitlines() if "|" in line}
    assert {"cohomix.algebra", "cohomix.grassmann"} <= imported
    unwanted = {"cohomix.gotzmann", "cohomix.filtration", "cohomix.equivariant", "fractions"}
    assert not imported & unwanted


def test_eq_localization_loads_no_betti_module():
    code, out, err = fresh("-X", "importtime", "-m", "cohomix.cli", "eq", "localization", "--k", "3")
    assert code == 0, err
    assert out == "rank=22 full=true\n"
    imported = {line.rsplit("|", 1)[1].strip() for line in err.splitlines() if "|" in line}
    wanted = {"cohomix.algebra", "cohomix.grassmann", "cohomix.gotzmann", "cohomix.equivariant"}
    assert wanted <= imported
    assert not imported & {"cohomix.filtration", "fractions"}


def test_every_public_name_resolves_and_star_binds_it():
    found = fresh_json(
        "import cohomix\n"
        "from cohomix import *\n"
        "ns = globals()\n"
        "modules = [m for k, m in sys.modules.items() if k.startswith('cohomix.')]\n"
        "print(json.dumps([\n"
        "    n for n in cohomix.__all__\n"
        "    if ns.get(n) is getattr(cohomix, n)\n"
        "    and any(vars(m).get(n) is ns[n] for m in modules)\n"
        "]))"
    )
    assert found == PUBLIC


def test_dir_lists_every_public_name_and_loads_nothing():
    listed, loaded = fresh_json(
        "import cohomix\n"
        "print(json.dumps([dir(cohomix), %s]))" % LOADED
    )
    assert set(PUBLIC) <= set(listed)
    assert loaded == []


def test_a_module_resolves_after_a_bare_import():
    resolved, loaded = fresh_json(
        "import cohomix\n"
        "print(json.dumps([cohomix.algebra is sys.modules['cohomix.algebra'], %s]))" % LOADED
    )
    assert resolved
    assert loaded == ["cohomix.algebra", "cohomix.errors"]


def test_unknown_name_raises_attribute_error():
    message, loaded = fresh_json(
        "import cohomix\n"
        "try:\n"
        "    cohomix.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps([str(exc), %s]))" % LOADED
    )
    assert message == "module 'cohomix' has no attribute 'no_such_name'"
    assert loaded == []
