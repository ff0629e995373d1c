"""Source hygiene: no module of the package or of the tests imports a name
it never uses, no public function, class, constant, method or property of
the package is used only by the tests, neither the package's defaulted
parameters nor its line count nor its calls of ``clear_denominators`` nor
the ``Fraction`` constructions of a non-existence suite call or of an
oracle call grow, the package imports only the standard library and itself
and loads neither dataclasses nor numpy on import, it holds one tolerance
constant and no other bound written as a scientific float literal, and no
record overrides a method of the tuple protocol.  The package's
``__init__`` is exempt from the first two, since its imports are the public
re-exports."""

import ast
import cProfile
import fractions
import pstats
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from bibennett import verify_nonexistence
from bibennett.algebra import _inverse_vandermonde
from bibennett.bennett import validate
from bibennett.families import Loop, make_family_b, necessary_conditions

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source: str):
    """(line, name) of each name bound by an import statement of
    ``source`` that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    package = sorted((ROOT / "src" / "bibennett").glob("*.py"))
    modules = [p for p in package if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in modules
              for line, name in _unused_imports(path.read_text("utf-8"))]
    assert not unused, "\n".join(unused)


def test_scan_finds_an_unused_import():
    source = ("import math\nimport os.path\nfrom sys import argv, path\n\n"
              "print(os.sep, path)\n")
    assert _unused_imports(source) == [(1, "math"), (3, "argv")]


def _foreign_imports(source: str):
    """(line, module) of each import statement of ``source`` whose top-level
    module is neither in the standard library nor ``bibennett``; relative
    imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.partition(".")[0] not in
                  sys.stdlib_module_names | {"bibennett"}]
    return found


def test_package_imports_only_the_standard_library():
    foreign = [f"{path.relative_to(ROOT)}:{line}: {name}"
               for path in sorted((ROOT / "src" / "bibennett").glob("*.py"))
               for line, name in _foreign_imports(path.read_text("utf-8"))]
    assert not foreign, "\n".join(foreign)


# Modules that importing the package must not load: the records are
# NamedTuples, so dataclasses and what it imports (inspect, ast, dis) stay
# off the import path, and no package code needs numpy.
UNLOADED_ON_IMPORT = ("dataclasses", "inspect", "ast", "dis", "numpy")

_IMPORT_PROBE = """import sys
sys.path.insert(0, sys.argv[1])
import bibennett
print(*(name for name in sys.argv[2:] if name in sys.modules))
"""


def test_import_loads_no_record_machinery_or_numpy():
    # a fresh interpreter: this one has imported ast and the test tools
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"),
         *UNLOADED_ON_IMPORT], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_foreign_import_scan():
    source = ("import math, numpy as np\nimport os.path\n"
              "from scipy.linalg import norm\nfrom . import algebra\n"
              "from bibennett.algebra import TOL\n\n"
              "def f():\n    import sympy\n")
    assert _foreign_imports(source) == [
        (1, "numpy"), (3, "scipy.linalg"), (8, "sympy")]


# Keyword parameters with defaults in the package, counting the defaulted
# fields of dataclasses and NamedTuples, which are constructor parameters
# too: the count may fall, never rise.  Lower it whenever one goes.
MAX_DEFAULTED_PARAMETERS = 21


def _is_record(node) -> bool:
    """Whether the class ``node`` is a dataclass or a NamedTuple."""
    names = [d.func if isinstance(d, ast.Call) else d
             for d in node.decorator_list] + node.bases
    return any(getattr(n, "id", getattr(n, "attr", None))
               in ("dataclass", "NamedTuple") for n in names)


def _defaulted_parameters(source: str):
    """(name, number of parameters with a default) of each function, lambda,
    dataclass or NamedTuple of ``source`` that has any."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            count = len(args.defaults) + sum(
                1 for default in args.kw_defaults if default is not None)
        elif isinstance(node, ast.ClassDef) and _is_record(node):
            count = sum(1 for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and stmt.value)
        else:
            continue
        if count:
            found.append((getattr(node, "name", "<lambda>"), count))
    return found


def test_defaulted_parameters_do_not_grow():
    found = [(f"{path.name}:{name}", count)
             for path in sorted((ROOT / "src" / "bibennett").glob("*.py"))
             for name, count in _defaulted_parameters(path.read_text("utf-8"))]
    total = sum(count for _, count in found)
    assert total <= MAX_DEFAULTED_PARAMETERS, (
        f"{total} defaulted parameters, at most {MAX_DEFAULTED_PARAMETERS}: "
        + ", ".join(f"{name} ({count})" for name, count in found))


# A record is a tuple: ``r[0]``, ``len(r)``, iteration, equality and the
# order follow its fields.  A view by another key goes under its own name
# (``SkewQuad.vertex``), never in place of a tuple method.
TUPLE_PROTOCOL = frozenset({
    "__getitem__", "__iter__", "__len__", "__contains__", "__eq__", "__ne__",
    "__hash__", "__lt__", "__le__", "__gt__", "__ge__", "__add__", "__mul__",
    "__rmul__"})


def _tuple_overrides(source: str):
    """(class, name) of each tuple-protocol method that a record of
    ``source`` defines; a record is a top-level class built on NamedTuple or
    on a record of the same module."""
    records, found = {"NamedTuple"}, []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.ClassDef) and any(
                getattr(b, "id", getattr(b, "attr", None)) in records
                for b in node.bases)):
            continue
        records.add(node.name)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(node.name, n) for n in names if n in TUPLE_PROTOCOL]
    return found


def test_records_keep_the_tuple_protocol():
    found = [f"{path.name}:{cls}.{name}"
             for path in sorted((ROOT / "src" / "bibennett").glob("*.py"))
             for cls, name in _tuple_overrides(path.read_text("utf-8"))]
    assert not found, found


def test_tuple_override_scan():
    source = ("import typing\nfrom typing import NamedTuple\n\n"
              "class Q(NamedTuple):\n    a: int\n\n"
              "    def __new__(cls, a):\n"
              "        return super().__new__(cls, a)\n\n"
              "    def __getitem__(self, key):\n        return key\n\n"
              "class _R(typing.NamedTuple):\n    a: int\n\n"
              "class R(_R):\n    __len__ = lambda self: 4\n\n"
              "    def __eq__(self, other):\n        return True\n\n"
              "    def __repr__(self):\n        return 'R'\n\n"
              "class Plain:\n"
              "    def __getitem__(self, key):\n        return key\n\n"
              "class Sub(Plain):\n"
              "    def __iter__(self):\n        return iter(())\n")
    assert _tuple_overrides(source) == [
        ("Q", "__getitem__"), ("R", "__len__"), ("R", "__eq__")]


# Lines of the package's modules, ``__init__`` included: the count may
# fall, never rise.  Lower it whenever code goes.
MAX_PACKAGE_LINES = 3475


def test_package_lines_do_not_grow():
    lines = sum(len(path.read_text("utf-8").splitlines())
                for path in (ROOT / "src" / "bibennett").glob("*.py"))
    assert lines <= MAX_PACKAGE_LINES, (
        f"src/bibennett has {lines} lines, at most {MAX_PACKAGE_LINES}")


# Calls of algebra.clear_denominators in the package: a pose, its quad and
# its hat pose keep their integers over one denominator, so only raw
# rationals (quad offsets, polynomial coefficients) are cleared.  The count
# may fall, never rise.
MAX_CLEAR_DENOMINATORS_CALLS = 3


def _calls(source: str, name: str):
    """Line numbers of the calls of the function ``name`` in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == name]


def test_clear_denominators_calls_do_not_grow():
    calls = [f"{path.name}:{line}"
             for path in sorted((ROOT / "src" / "bibennett").glob("*.py"))
             for line in _calls(path.read_text("utf-8"), "clear_denominators")]
    assert len(calls) <= MAX_CLEAR_DENOMINATORS_CALLS, calls


# Fraction constructions (calls of Fraction.__new__, counted by cProfile) in
# one warm verify_nonexistence() call.  The suite runs on integers from the
# drive frames to its entries, the printed twist polynomials and each drive
# frame's t12 = K / tau run on unreduced integer ratios, and its nodes reach
# the interpolation as integer ratios, so Fractions are built only for the
# drive designs' links and transmission (once per design) and one value per
# entry.  The count may fall, never rise.
MAX_SUITE_FRACTIONS = 333
# The same count for a first call, right after the cached inverse
# Vandermonde tables are dropped: they are rebuilt from the Lagrange basis
# on integers, without a Fraction.  The count may fall, never rise.
MAX_COLD_SUITE_FRACTIONS = 333
# The same count for one necessary_conditions() call on a family-B loop
# and its companion with the first offset perturbed.  Each side condition
# is one Fraction per side, an integer from the links' kernel factors and
# the offsets over one denominator; the diagonals and the eliminant build
# the rest.  The count may fall, never rise.
MAX_ORACLE_FRACTIONS = 178


def _fractions(call, *args):
    """Fraction constructions of one call(*args)."""
    profile = cProfile.Profile()
    profile.runcall(call, *args)
    return sum(calls for (path, _, name), (_, calls, *_)
               in pstats.Stats(profile).stats.items()
               if path == fractions.__file__ and name == "__new__")


def test_suite_fractions_do_not_grow():
    verify_nonexistence()  # builds the cached inverse Vandermonde tables
    built = _fractions(verify_nonexistence)
    assert 0 < built <= MAX_SUITE_FRACTIONS, built


def test_cold_suite_fractions_do_not_grow():
    _inverse_vandermonde.cache_clear()
    built = _fractions(verify_nonexistence)
    assert 0 < built <= MAX_COLD_SUITE_FRACTIONS, built


def test_oracle_fractions_do_not_grow():
    F = fractions.Fraction
    bib = make_family_b(F(2, 3), F(1, 2), validate(F(3, 7), F(5, 4), F(2, 3)))
    bar = Loop(bib.design, bib.bar_mu._replace(mu14=bib.mu.mu14 + F(1, 100)))
    built = _fractions(necessary_conditions, bib.loop(), bar)
    assert 0 < built <= MAX_ORACLE_FRACTIONS, built


def test_call_scan():
    source = ("from m import f\nimport m\n\nf(1)\nm.f(2)\ng(f)\n"
              "def f():\n    return f\n")
    assert _calls(source, "f") == [4, 5]


def test_defaulted_parameter_scan():
    source = ("import dataclasses\nfrom typing import NamedTuple\n\n"
              "def f(a, b=1, *, c, d=2):\n    pass\n\n"
              "g = lambda x=0: x\n\ndef h(a):\n    pass\n\n"
              "@dataclasses.dataclass(frozen=True)\n"
              "class R:\n    a: int\n    b: int = 1\n\n"
              "class T(NamedTuple):\n    a: int = 0\n    b: str = ''\n\n"
              "class Plain:\n    a: int = 0\n")
    assert sorted(_defaulted_parameters(source)) == [
        ("<lambda>", 1), ("R", 1), ("T", 2), ("f", 2)]


def _reads(tree):
    """(bare names, attribute names) that ``tree`` loads, with their counts."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs[node.attr] += 1
    return names, attrs


def _defined(stmt):
    """Names that the top-level statement ``stmt`` defines: a function, a
    class or the names assigned (the module's constants)."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _test_only_names(sources, readers, spans):
    """Public names of the modules ``sources`` (file name -> source) that
    nothing outside their own definition reads.

    A top-level function, class or constant is read when another top-level
    statement of ``sources`` loads it, or when one of the ``readers`` (the
    sources of other modules) or ``spans`` (strings) names it as a word.  A
    method or property of a top-level class, dunders aside, is read when a
    module of ``sources`` or ``readers`` loads an attribute of that name
    outside the member's own definition, or a span names it as ``.name``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        bare, attr = _reads(tree)
        names += bare + attr
        attrs += attr
    for source in readers:
        attrs += _reads(ast.parse(source))[1]
    texts = [*readers, *spans]
    unused = []
    for module, tree in trees.items():
        for stmt in tree.body:
            own = sum(_reads(stmt), Counter())
            for name in _defined(stmt):
                if (name.startswith("_") or names[name] > own[name]
                        or any(re.search(rf"\b{name}\b", text)
                               for text in texts)):
                    continue
                unused.append(f"{module}:{name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            for member in stmt.body:
                if (not isinstance(member, ast.FunctionDef)
                        or member.name.startswith("_")
                        or attrs[member.name] > _reads(member)[1][member.name]
                        or any(re.search(rf"\.{member.name}\b", span)
                               for span in spans)):
                    continue
                unused.append(f"{module}:{stmt.name}.{member.name}")
    return sorted(unused)


def test_no_public_name_is_test_only():
    package = {path.name: path.read_text("utf-8")
               for path in sorted((ROOT / "src" / "bibennett").glob("*.py"))
               if path.name != "__init__.py"}
    bench = [path.read_text("utf-8")
             for path in sorted((ROOT / "bench").glob("*.py"))]
    # the README's code spans, not its prose
    spans = re.findall(r"`([^`]*)`", (ROOT / "README.md").read_text("utf-8"))
    assert _test_only_names(package, bench, spans) == []


def test_test_only_scan():
    sources = {
        "a.py": "LIMIT = 3\nUNUSED = 4\n\n"
                "def f():\n    return g() + LIMIT\n\n"
                "def g():\n    points = 1\n    return points\n\n"
                "def loop(n):\n    return loop(n - 1)\n\n"
                "class Error(ValueError):\n    pass\n\n"
                "class Quad:\n    def side(self):\n        return 1\n\n"
                "    def points(self):\n        return self.points()\n\n"
                "    def __len__(self):\n        return 4\n\n"
                "def _private():\n    pass\n",
        "b.py": "import a\n\nprint(a.f() + a.Quad().side())\n",
    }
    assert _test_only_names(sources, [], []) == [
        "a.py:Error", "a.py:Quad.points", "a.py:UNUSED", "a.py:loop"]
    assert _test_only_names(sources, [], ["raises `Error`"]) == [
        "a.py:Quad.points", "a.py:UNUSED", "a.py:loop"]
    # a member is read only as an attribute: a word does not count
    assert _test_only_names(sources, ["Quad().points()", "UNUSED"],
                            ["points"]) == ["a.py:Error", "a.py:loop"]
    assert "a.py:Quad.points" in _test_only_names(sources, ["# points"],
                                                  ["the points"])
    assert "a.py:Quad.points" not in _test_only_names(sources, [],
                                                      ["`q.points()`"])


_TOLERANCE_NAME = re.compile(r"(^|_)(TOL|TOLERANCE|EPS|EPSILON)(_|$)")

# The scientific float literals the package may hold, by the name of the
# constant or function that holds them: TOL's value, and the collinearity
# guard of align_isometry's float frames, which goes with that float
# alignment (ROADMAP item 2).
ALLOWED_SCIENTIFIC_LITERALS = {
    "algebra.py:TOL": "1e-9",
    "families.py:align_isometry.frame_matrix": "1e-12",
}


def _tolerance_scan(sources):
    """(tolerance constants, scientific float literals) of the modules
    ``sources`` (file name -> source): each constant as ``module:NAME``,
    each literal as ``module:holder`` -> its text, the holder being the
    dotted name of the enclosing functions and classes or the constant it
    is assigned to."""
    constants, literals = [], {}

    def visit(module, source, node, holder):
        for child in ast.iter_child_nodes(node):
            name = holder
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{holder}.{child.name}" if holder else child.name
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target])
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    name = holder or target.id
                    if (target.id.isupper()
                            and _TOLERANCE_NAME.search(target.id)):
                        constants.append(f"{module}:{target.id}")
            elif (isinstance(child, ast.Constant)
                    and isinstance(child.value, float)):
                text = ast.get_source_segment(source, child)
                if "e" in text.lower():
                    literals.setdefault(f"{module}:{holder}", []).append(text)
            visit(module, source, child, name)

    for module, source in sources.items():
        visit(module, source, ast.parse(source), "")
    return sorted(constants), {
        key: ", ".join(texts) for key, texts in sorted(literals.items())}


def test_one_tolerance_constant_and_no_other_scientific_literal():
    sources = {path.name: path.read_text("utf-8")
               for path in sorted((ROOT / "src" / "bibennett").glob("*.py"))}
    constants, literals = _tolerance_scan(sources)
    assert constants == ["algebra.py:TOL"]
    assert literals == ALLOWED_SCIENTIFIC_LITERALS


def test_tolerance_scan():
    sources = {
        "a.py": "TOL = 1e-9\nEDGE_TOL = 1e-10\nHALF = 0.5\nBIG = 2.5E3\n\n"
                "def f(x):\n    return abs(x) < 1e-12 or x > 1.0\n\n"
                "class Q:\n    def g(self):\n        return 3e-8\n",
        "b.py": "def h():\n    def k():\n        return 1e-6\n"
                "    return k\nEPS = 0.001\nTOTAL = 3\n",
    }
    constants, literals = _tolerance_scan(sources)
    assert constants == ["a.py:EDGE_TOL", "a.py:TOL", "b.py:EPS"]
    assert literals == {"a.py:BIG": "2.5E3", "a.py:EDGE_TOL": "1e-10",
                        "a.py:Q.g": "3e-8", "a.py:TOL": "1e-9",
                        "a.py:f": "1e-12", "b.py:h.k": "1e-6"}
