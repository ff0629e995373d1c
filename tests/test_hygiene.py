"""Source hygiene: no module of the package or of the tests imports a name
it never uses, no public function or class of the package is used only by
the tests, and neither the package's defaulted parameters nor its line
count grow.  The package's ``__init__`` is exempt from the first two, since
its imports are the public re-exports."""

import ast
import re
from pathlib import Path

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


# Keyword parameters with defaults in the package, counting the defaulted
# fields of dataclasses and NamedTuples, which are constructor parameters
# too: the count may fall, never rise.  Lower it whenever one goes.
MAX_DEFAULTED_PARAMETERS = 31


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


# Lines of the package's modules, ``__init__`` included: the count may
# fall, never rise.  Lower it whenever code goes.
MAX_PACKAGE_LINES = 3582


def test_package_lines_do_not_grow():
    lines = sum(len(path.read_text("utf-8").splitlines())
                for path in (ROOT / "src" / "bibennett").glob("*.py"))
    assert lines <= MAX_PACKAGE_LINES, (
        f"src/bibennett has {lines} lines, at most {MAX_PACKAGE_LINES}")


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


def _test_only_names(sources, texts):
    """Public top-level functions and classes of the modules ``sources``
    (file name -> source) that no other top-level statement of any of them
    reads and no string of ``texts`` names as a word."""
    defined, reads = [], []
    for name, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, stmt.name))
            reads.append((stmt, {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))}))
    unused = []
    for module, name in defined:
        if name.startswith("_"):
            continue
        if any(name in names and getattr(stmt, "name", None) != name
               for stmt, names in reads):
            continue
        if any(re.search(rf"\b{name}\b", text) for text in texts):
            continue
        unused.append(f"{module}:{name}")
    return sorted(unused)


def test_no_public_name_is_test_only():
    package = {path.name: path.read_text("utf-8")
               for path in sorted((ROOT / "src" / "bibennett").glob("*.py"))
               if path.name != "__init__.py"}
    texts = [path.read_text("utf-8")
             for path in sorted((ROOT / "bench").glob("*.py"))]
    # the README's code spans, not its prose
    texts += re.findall(r"`([^`]*)`", (ROOT / "README.md").read_text("utf-8"))
    assert _test_only_names(package, texts) == []


def test_test_only_scan():
    sources = {
        "a.py": "def f():\n    return g()\n\n"
                "def g():\n    return 1\n\n"
                "def loop(n):\n    return loop(n - 1)\n\n"
                "class Error(ValueError):\n    pass\n\n"
                "def _private():\n    pass\n",
        "b.py": "import a\n\nx = a.f()\n",
    }
    assert _test_only_names(sources, []) == ["a.py:Error", "a.py:loop"]
    assert _test_only_names(sources, ["raises `Error`"]) == ["a.py:loop"]
