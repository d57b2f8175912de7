"""Every name a module of the package imports is used in that module, every
module it imports outside the package is in the standard library, every
private function, class and method is used somewhere in the package, every
error class derives from `QpsurfError` and the CLI catches no `ValueError`,
and the brute-force oracles import nothing of the package.

Reads the sources with `ast` and imports no qpsurf module, so a deletion that
leaves an import or a helper behind fails here whatever else the suite loads.
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qpsurf").glob("*.py"))
ORACLES = [ROOT / "tests" / "oracles.py", ROOT / "bench" / "oracle.py"]


def unused_imports(source):
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


def non_stdlib_imports(source):
    """(line, top-level module) of each absolute import outside the standard
    library, function-local imports included, in line order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.split(".")[0]))
    return sorted((line, name) for line, name in out if name not in sys.stdlib_module_names)


def package_imports(source):
    """(line, dotted name) of each import that reaches a `qpsurf` module.

    Absolute and relative imports count alike: a name counts when any of its
    dotted parts, the imported names of a `from` import included, is
    `qpsurf`.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module + "." if node.module else "")
            names = [base + alias.name for alias in node.names]
        else:
            continue
        out += [(node.lineno, name) for name in names if "qpsurf" in name.lstrip(".").split(".")]
    return out


def referenced_name(node):
    """The name a bare-name or attribute node refers to, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unreferenced_privates(sources):
    """(module, line, name) of each `_name` def that no code outside it refers to.

    Covers module-level functions and classes and the methods of module-level
    classes; dunder names are exempt.  A reference is a bare name or an
    attribute, anywhere in `sources` (module name -> source) except inside
    the def itself, so recursion alone does not count.
    """
    defs = []
    refs = {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            name = referenced_name(node)
            if name:
                refs[name] = refs.get(name, 0) + 1
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node] + members:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and d.name.startswith("_") and not d.name.endswith("__")):
                    defs.append((module, d))
    out = []
    for module, d in defs:
        inside = sum(1 for node in ast.walk(d) if referenced_name(node) == d.name)
        if refs.get(d.name, 0) == inside:
            out.append((module, d.lineno, d.name))
    return sorted(out)


def error_bases(sources):
    """{name: base names} of each class named `*Error` in `sources`."""
    return {node.name: [referenced_name(b) for b in node.bases]
            for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name.endswith("Error")}


def caught_names(source):
    """(line, name) of each exception class an `except` clause names."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            out += [(node.lineno, referenced_name(t)) for t in types]
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import os\nfrom sys import argv, path as p\nprint(argv)\n"
    assert unused_imports(source) == [(1, "os"), (2, "p")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def test_non_stdlib_import_is_reported():
    source = ("import os, numpy.linalg\nfrom fractions import Fraction\nfrom . import algebra\n"
              "from .linalg import rank\n\n\ndef f():\n    import sympy\n"
              "    from scipy import sparse\n")
    assert non_stdlib_imports(source) == [(1, "numpy"), (8, "sympy"), (9, "scipy")]


def test_every_private_helper_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_privates(sources) == []


def test_unreferenced_private_is_reported():
    sources = {
        "a": "def _used():\n    pass\n\n\ndef _dead(n):\n    return _dead(n - 1)\n\n\n"
             "class _Dead:\n    pass\n\n\nclass C:\n    def _m(self):\n        pass\n\n"
             "    def __init__(self):\n        pass\n",
        "b": "from a import _used\n_used()\n",
    }
    assert unreferenced_privates(sources) == [("a", 5, "_dead"), ("a", 9, "_Dead"),
                                              ("a", 14, "_m")]


def test_every_error_class_derives_from_the_package_error():
    """So the CLI, which catches `QpsurfError` alone, reports each as refused input."""
    bases = error_bases(p.read_text(encoding="utf-8") for p in SOURCES)
    assert bases.pop("QpsurfError") == ["ValueError"]
    assert bases and all(b == ["QpsurfError"] for b in bases.values()), bases


def test_error_class_bases_are_reported():
    source = ("class AError(QpsurfError):\n    pass\n\n\nclass BError(ValueError, Mixin):\n"
              "    pass\n\n\nclass Other(KeyError):\n    pass\n")
    assert error_bases([source]) == {"AError": ["QpsurfError"], "BError": ["ValueError", "Mixin"]}


def test_the_cli_catches_no_value_error():
    """A ValueError that is not a `QpsurfError` is a bug, so it leaves `main` with
    its traceback instead of reading as an input error."""
    source = (ROOT / "src" / "qpsurf" / "cli.py").read_text(encoding="utf-8")
    assert "ValueError" not in [name for _, name in caught_names(source)]


def test_caught_names_are_reported():
    source = ("try:\n    pass\nexcept (OSError, x.ValueError):\n    pass\n"
              "except KeyError as e:\n    pass\nexcept:\n    pass\n")
    assert caught_names(source) == [(3, "OSError"), (3, "ValueError"), (5, "KeyError")]


@pytest.mark.parametrize("path", ORACLES, ids=["tests/oracles.py", "bench/oracle.py"])
def test_oracles_import_nothing_of_the_package(path):
    assert package_imports(path.read_text(encoding="utf-8")) == []


def test_package_import_is_reported():
    source = ("import os, qpsurf.quiver\nfrom qpsurf import algebra\n"
              "from ..src.qpsurf.qp import QP\nfrom .. import qpsurf\nfrom . import oracles\n")
    assert package_imports(source) == [(1, "qpsurf.quiver"), (2, "qpsurf.algebra"),
                                       (3, "..src.qpsurf.qp.QP"), (4, "..qpsurf")]
