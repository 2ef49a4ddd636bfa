"""Every name imported in src/nstl and scripts/ is used in its module:
unused imports have crept back before, and nothing else catches them."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "nstl").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py")
)

# Names kept importable on purpose, as (module file, name). None today:
# nonstandard.rref, which the benchmark's tracer test looks up, is used.
ALLOWED = set()


def imported_names(tree):
    """(bound name, line) for each import outside `from __future__`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Names loaded anywhere, including inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in imported_names(tree)
        if name not in used and (path.name, name) not in ALLOWED
    ]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_detects_an_unused_import():
    tree = ast.parse(
        "import os\nfrom math import gcd, lcm\nfrom fractions import Fraction\n"
        "def f(x: 'Fraction'):\n    return gcd(x, 1)\n"
    )
    used = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["os", "lcm"]
