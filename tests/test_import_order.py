"""The modules of the package import one another in one order, so none of
them imports a later one and the import graph has no cycle.

The order is version, polynomials, classical, pointmass, diffeq, verify, cli.
Each import of a package module, function bodies included, must name a
module earlier in it; the entry points ``__init__`` and ``__main__`` come
after all of them.  A name a later module re-exports is the earlier module's
object, never a second copy.
"""

import ast
from pathlib import Path

import pytest

import charlier
from charlier import classical, pointmass

ORDER = ("version", "polynomials", "classical", "pointmass", "diffeq", "verify", "cli",
         "__main__", "__init__")
PACKAGE = Path(charlier.__file__).parent


def imported_modules(tree):
    """(line, module) for each package module an import in tree names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["charlier" if node.level else "", node.module]))
            targets = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        modules = {t.split(".")[1] for t in targets if t.startswith("charlier.")}
        yield from ((node.lineno, module) for module in sorted(modules))


def backward_edges(package):
    """'file:line → module' for each import of a module not before its own;
    a module missing from ORDER raises ValueError."""
    edges = []
    for path in sorted(package.glob("*.py")):
        rank = ORDER.index(path.stem)
        for line, module in imported_modules(ast.parse(path.read_text(), str(path))):
            if module not in ORDER[:rank]:
                edges.append(f"{path.name}:{line} → {module}")
    return edges


def test_no_module_imports_a_later_one():
    assert backward_edges(PACKAGE) == []


@pytest.mark.parametrize("source,expected", [
    ("from .pointmass import shifted_charlier", ["classical.py:1 → pointmass"]),
    ("def f():\n    from . import diffeq as dq", ["classical.py:2 → diffeq"]),
    ("import charlier.verify", ["classical.py:1 → verify"]),
    ("from charlier import cli", ["classical.py:1 → cli"]),
    ("from charlier.pointmass import gen_charlier", ["classical.py:1 → pointmass"]),
    ("from .polynomials import Poly\nfrom . import version\nimport os", []),
])
def test_a_later_import_is_reported_with_its_line(tmp_path, source, expected):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text("")
    (tmp_path / "classical.py").write_text(source + "\n")
    assert backward_edges(tmp_path) == expected


@pytest.mark.parametrize("name", ["shifted_charlier", "shifted_moment_row"])
def test_pointmass_binds_the_classical_piece_itself(name):
    assert getattr(pointmass, name) is getattr(classical, name)
