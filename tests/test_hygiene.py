"""Source hygiene: every module uses every name it imports, and the
runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cohomix"


def reader_paths():
    """The files whose reads and calls the reader rules count: the package,
    the demos and the benchmark.  Tests do not count."""
    return [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


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


def unbounded_caches(source):
    """Line numbers of the source's process-wide caches with no bound:
    `functools.cache`, by either spelling, and `lru_cache(maxsize=None)`
    or `lru_cache(None)`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for a in node.names if a.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "lru_cache":
                continue
            bounds = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(b, ast.Constant) and b.value is None for b in bounds):
                lines.append(node.lineno)
    return sorted(lines)


def test_reader_sees_every_unbounded_cache():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.cache\ndef a(): pass\n"
        "@lru_cache(maxsize=None)\ndef b(): pass\n"
        "@functools.lru_cache(None)\ndef c(): pass\n"
        "@lru_cache(maxsize=64)\ndef d(): pass\n"
        "@lru_cache\ndef e(): pass\n"
    )
    assert unbounded_caches(source) == [2, 3, 5, 7]


def test_every_cache_is_bounded():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unbounded = {
        p.name: lines
        for p in modules
        if (lines := unbounded_caches(p.read_text(encoding="utf-8")))
    }
    assert unbounded == {}


def module_definitions(source):
    """Names of the source's module-level functions and classes, in
    order of appearance."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.parse(source).body if isinstance(node, kinds)]


def names_read(source, attributes_only=False):
    """Every name the source reads, as an `ast.Name` or as the attribute
    of an `ast.Attribute`; with `attributes_only`, only the latter, the
    way a class member is read."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if not attributes_only:
                read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_reader_sees_definitions_and_reads():
    source = (
        "import m\n"
        "def a(): return b()\n"
        "def b(): pass\n"
        "class C:\n    def d(self): pass\n"
        "async def e(): pass\n"
        "f = 1\n"
        "m.g()\n"
        "h = m.i\n"
    )
    assert module_definitions(source) == ["a", "b", "C", "e"]
    assert names_read(source) == {"b", "m", "g", "i"}
    assert names_read(source, attributes_only=True) == {"g", "i"}


# Module-level functions that the import system calls (PEP 562), as it
# calls the dunder methods that the member rule skips: read by definition.
IMPORT_HOOKS = {"__getattr__", "__dir__"}


def unread_definitions(sources, readers):
    """{module: names} of the module-level functions and classes of the
    `sources` ({module: source}) that no source in `readers` reads, for
    the modules that have any; a module's `__getattr__` and `__dir__`
    count as read."""
    read = set().union(IMPORT_HOOKS, *map(names_read, readers))
    return {
        name: unread
        for name, source in sources.items()
        if (unread := [d for d in module_definitions(source) if d not in read])
    }


def test_reader_sees_reads_outside_the_package_but_not_exports():
    # an import into __init__ and a name in __all__ read nothing, and a
    # call from a demo or a benchmark does; a and D, which only a test
    # reads, count as read only once the test is handed in as a reader
    sources = {
        "m.py": "def a(): pass\ndef b(): pass\ndef c(): pass\nclass D: pass\n",
        "__init__.py": "from .m import a, b, c, D\n__all__ = ['a', 'b', 'c', 'D']\n",
    }
    demo = "import pkg\npkg.b()\n"
    bench = "from pkg import c\nc()\n"
    test = "from pkg import a, D\nassert a() is None and D()\n"
    readers = [*sources.values(), demo, bench]
    assert unread_definitions(sources, readers) == {"m.py": ["a", "D"]}
    assert unread_definitions(sources, [*readers, test]) == {}


def test_reader_counts_import_hooks_but_not_other_functions():
    # the package's lazy __getattr__ and __dir__ have no reader in any
    # source, yet count as read; an ordinary function beside them that
    # nothing reads is still reported
    sources = {
        "__init__.py": (
            "def __getattr__(name): return _load(name)\n"
            "def __dir__(): return []\n"
            "def _load(name): pass\n"
            "def _unused(): pass\n"
        ),
    }
    assert unread_definitions(sources, sources.values()) == {"__init__.py": ["_unused"]}


def test_every_function_and_class_has_a_reader():
    # a public name that only tests read fails, as for class members and
    # parameters
    modules = sorted(SRC.glob("*.py"))
    assert modules
    sources = {p.name: p.read_text(encoding="utf-8") for p in modules}
    assert unread_definitions(sources, [p.read_text(encoding="utf-8") for p in reader_paths()]) == {}


def class_members(source):
    """(class, member) pairs of the source's module-level classes, in
    order of appearance: every method and property, and every name in
    `__slots__`, that is not a dunder."""
    members = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign) and getattr(item.targets[0], "id", None) == "__slots__":
                names = ast.literal_eval(item.value)
            else:
                continue
            members += [(node.name, n) for n in names if not (n[:2] == n[-2:] == "__")]
    return members


def test_reader_sees_class_members():
    source = (
        "def f(): pass\n"
        "class C:\n"
        "    __slots__ = ('a', '_b')\n"
        "    x = 1\n"
        "    def __init__(self): pass\n"
        "    @property\n    def p(self): pass\n"
        "    @classmethod\n    def q(cls): pass\n"
        "class D(dict):\n    __slots__ = ('e',)\n    __rmul__ = __mul__ = None\n"
    )
    assert class_members(source) == [("C", "a"), ("C", "_b"), ("C", "p"), ("C", "q"), ("D", "e")]


def test_every_class_member_has_a_reader():
    # Tests do not count as readers, and members are matched by name only,
    # so a name that several classes define counts as read for all of them
    # (test_member_names_shared_by_classes_are_pinned lists those).
    read = set().union(
        *(names_read(p.read_text(encoding="utf-8"), attributes_only=True) for p in reader_paths())
    )
    unread = [
        "%s.%s" % (cls, name)
        for p in sorted(SRC.glob("*.py"))
        for cls, name in class_members(p.read_text(encoding="utf-8"))
        if name not in read
    ]
    assert unread == []


def test_member_names_shared_by_classes_are_pinned():
    # The member rule cannot tell apart the classes that define one name:
    # a reader of either counts for both.  Each pair below was checked by
    # hand to have a reader of its own; a new shared name fails here until
    # it is checked the same way and listed.
    owners = {}
    for p in sorted(SRC.glob("*.py")):
        for cls, name in class_members(p.read_text(encoding="utf-8")):
            owners.setdefault(name, []).append(cls)
    shared = {name: sorted(classes) for name, classes in owners.items() if len(classes) > 1}
    assert shared == {
        "is_zero": ["IntegerPolynomial", "MultiPoly"],
        "n": ["FixedSubspace", "WeightSystem"],
        "parse": ["Partition", "PartitionTriple"],
        "parts": ["Partition", "PartitionTriple"],
        "size": ["Partition", "PartitionTriple"],
        "variables": ["GradedPresentation", "MultiPoly"],
    }


def _names_fraction(node):
    return (isinstance(node, ast.Name) and node.id == "Fraction") or (
        isinstance(node, ast.Attribute) and node.attr == "Fraction"
    )


def ungated_fractions(source, gate=None):
    """Line numbers, one per call, where the source makes a Fraction outside
    the module-level function named `gate`: every call `Fraction(...)`,
    whatever its arguments, and every call that is handed `Fraction` as the
    callable to apply, as in `map(Fraction, row)`.  `isinstance` and
    `issubclass` are not counted, as they only test a type."""
    tree = ast.parse(source)
    skipped = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == gate:
            skipped.update(map(id, ast.walk(node)))
    lines = []
    for node in ast.walk(tree):
        if id(node) in skipped or not isinstance(node, ast.Call):
            continue
        args = node.args + [k.value for k in node.keywords]
        if _names_fraction(node.func):
            lines.append(node.lineno)
        elif getattr(node.func, "id", None) not in ("isinstance", "issubclass"):
            if any(map(_names_fraction, args)):
                lines.append(node.lineno)
    return sorted(lines)


def test_reader_sees_every_ungated_fraction():
    source = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "def _fraction(c):\n    return Fraction(c)\n"
        "a = Fraction(x)\n"
        "b = Fraction(0) + Fraction(n, d)\n"
        "c = list(map(Fraction, row))\n"
        "d = fractions.Fraction(y)\n"
        "e = isinstance(z, Fraction) or isinstance(z, (int, Fraction))\n"
        "f = sorted(row, key=Fraction)\n"
        "g = Fraction(0.5)\n"
    )
    assert ungated_fractions(source, gate="_fraction") == [5, 6, 6, 7, 8, 10, 11]
    assert ungated_fractions(source) == [4, 5, 6, 6, 7, 8, 10, 11]


def test_one_gate_makes_every_rational_coefficient():
    # algebra._fraction is the one place where anything becomes a Fraction,
    # so a float or a str cannot slip in
    modules = sorted(SRC.glob("*.py"))
    assert modules
    ungated = {
        p.name: lines
        for p in modules
        if (
            lines := ungated_fractions(
                p.read_text(encoding="utf-8"), "_fraction" if p.name == "algebra.py" else None
            )
        )
    }
    assert ungated == {}


def true_divisions(source):
    """Line numbers, one per operator, of the source's true divisions:
    every `/` and every `/=`; `//` is not counted."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


def test_reader_sees_every_true_division():
    source = (
        "a = b / c\n"
        "a /= 2\n"
        "d = b // c\n"
        "d //= 2\n"
        "e = -x / (y / z)\n"
        "f = '1/2'\n"
    )
    assert true_divisions(source) == [1, 2, 5, 5]


def test_no_true_division():
    # every exact quotient in the package is //, so no value turns into a
    # float, or a Fraction, by being divided
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {
        p.name: lines
        for p in modules
        if (lines := true_divisions(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def raised_names(source):
    """Names of the exceptions the source raises, called or not, by name
    or as an attribute; a bare `raise` names none."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_reader_sees_raised_names():
    source = (
        "try:\n    f()\nexcept E:\n    raise\n"
        "raise A('x')\n"
        "raise B from None\n"
        "raise errors.C()\n"
        "D('not raised')\n"
    )
    assert raised_names(source) == {"A", "B", "C"}


def test_every_error_class_is_raised():
    # an except clause or an isinstance test counts as a reader too, so
    # the orphan check above cannot see an error class that nothing raises
    modules = sorted(SRC.glob("*.py"))
    assert modules
    raised = set().union(*(raised_names(p.read_text(encoding="utf-8")) for p in modules))
    defined = module_definitions((SRC / "errors.py").read_text(encoding="utf-8"))
    assert defined
    assert [name for name in defined if name not in raised] == []


def defaulted_parameters(source, names):
    """(callee, parameter, position) for every parameter with a default of
    the module-level functions in `names` and of the `__init__` of the
    classes in `names`, in order of appearance.  The callee is the name a
    call uses; the position is the parameter's index among a call's
    positional arguments (`self` not counted), None for keyword-only."""
    found = []
    for node in ast.parse(source).body:
        if getattr(node, "name", None) not in names:
            continue
        if isinstance(node, ast.ClassDef):
            inits = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            if not inits:
                continue
            args, skip = inits[0].args, 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args, skip = node.args, 0
        else:
            continue
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found += [(node.name, a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
        found += [
            (node.name, a.arg, None)
            for a, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
    return found


def parameters_set(source):
    """(callee, parameter or position) for what each call in the source
    sets: the callee is the called name or attribute, as the member rule
    matches members; a positional argument sets its index and a keyword
    argument its name.  A starred argument sets its index and every later
    one, and a `**` mapping sets every name, as neither can be read."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        for i, arg in enumerate(node.args):
            found.add((callee, ("*", i) if isinstance(arg, ast.Starred) else i))
        found.update((callee, k.arg if k.arg else "**") for k in node.keywords)
    return found


def is_set(setters, callee, name, position):
    """Whether some call read by parameters_set sets the parameter."""
    if (callee, name) in setters or (callee, "**") in setters:
        return True
    if position is None:
        return False
    return (callee, position) in setters or any(
        (callee, ("*", i)) in setters for i in range(position + 1)
    )


def test_reader_sees_defaults_and_their_setters():
    source = (
        "def f(a, b=1, c=2, *, d=3, e): pass\n"
        "def g(x=0): pass\n"
        "def _h(y=0): pass\n"
        "class C:\n    def __init__(self, u, v=1): pass\n    def m(self, w=1): pass\n"
        "class D:\n    pass\n"
        "f(1, 2, e=3)\n"
        "m.g(*xs)\n"
        "C(0, **kw)\n"
    )
    names = {"f", "g", "C", "D"}
    assert defaulted_parameters(source, names) == [
        ("f", "b", 1),
        ("f", "c", 2),
        ("f", "d", None),
        ("g", "x", 0),
        ("C", "v", 1),
    ]
    setters = parameters_set(source)
    assert setters == {("f", 0), ("f", 1), ("f", "e"), ("g", ("*", 0)), ("C", 0), ("C", "**")}
    assert [is_set(setters, *p) for p in defaulted_parameters(source, names)] == [
        True,
        False,
        False,
        True,
        True,
    ]


def test_every_defaulted_parameter_has_a_setter():
    # A default that no call in the package, the demos or the benchmark
    # ever overrides is a parameter that only tests set.  Tests do not count
    # as setters, and callees match by name only.  A new one fails here
    # until it gets a setter or goes.
    import cohomix

    setters = set().union(
        *(
            parameters_set(p.read_text(encoding="utf-8"))
            for p in reader_paths()
        )
    )
    unset = [
        "%s.%s" % (callee, name)
        for p in sorted(SRC.glob("*.py"))
        for callee, name, position in defaulted_parameters(
            p.read_text(encoding="utf-8"), set(cohomix.__all__)
        )
        if not is_set(setters, callee, name, position)
    ]
    assert unset == []
