"""Source hygiene: every module uses every name it imports, and the
runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cohomix"


def unused_imports(source):
    """Names bound by the module's import statements that no expression
    in the module reads, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_reader_sees_names_and_attribute_roots():
    source = "import os.path\nfrom a import b, c as d\nos.sep\nd()\n"
    assert unused_imports(source) == ["b"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: names
        for p in modules
        if (names := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}


def absolute_imports(source):
    """Top-level module names of the source's absolute imports, in order
    of appearance; relative imports (within the package) are skipped."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_reader_sees_absolute_imports_only():
    source = "import os.path, json\nfrom fractions import Fraction\nfrom .a import b\n"
    assert absolute_imports(source) == ["os", "json", "fractions"]


def test_runtime_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    foreign = [
        (p.name, name)
        for p in modules
        for name in absolute_imports(p.read_text(encoding="utf-8"))
        if name not in sys.stdlib_module_names
    ]
    assert foreign == []
