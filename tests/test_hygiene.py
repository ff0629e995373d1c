"""Source hygiene: no module of the package or of the tests imports a name
it never uses.  The package's ``__init__`` is exempt, since its imports are
the public re-exports."""

import ast
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
