"""Every top-level function and class of src/nstl, and every public
method of its classes, is referenced by name somewhere outside its own
definition in src/nstl, scripts/ or perfbench/ (not perfbench/tests):
code that only tests call belongs in the tests, as an oracle.

A reference is a loaded name, a loaded attribute, or one part of a
dotted identifier in a string that is not a docstring (the benchmark's
tracer names callables as "RationalFn.specialize"). A name that a
function binds (an argument, or the target of an assignment, a loop or
a comprehension) is its local there, so loading it inside that
function is no reference. The scan is by name only, with no types and
no reachability: a definition whose name is used for something else,
such as a method `convert` beside another `convert`, or a property
`lower` beside the string "lower", passes. A definition that is
referenced only from other dead code passes too, so delete top-down."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
LIBRARY = sorted((ROOT / "src" / "nstl").glob("*.py"))
REFERRERS = LIBRARY + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)

# (module file, qualified name) -> why it stays without a caller.
ALLOWED = {}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(tree):
    """(qualified name, bare name, is a method, node) for each top-level
    function and class and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, False, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True, item


def docstrings(tree):
    """The ids of string statements, docstrings among them."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_names(function):
    """The names a function binds itself: its arguments and the targets
    of its assignments, loops and comprehensions, not those of the
    functions nested in it."""
    names = {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
    body = function.body if isinstance(function.body, list) else [function.body]
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return names


def loaded_names(node, bound=frozenset()):
    """(name, line) for each bare name loaded under node that is not a
    local of a function around it."""
    if isinstance(node, _FUNCTIONS):
        bound = bound | local_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in bound:
            yield node.id, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from loaded_names(child, bound)


def references(tree):
    """(name, line, is a bare name) for each reference in a module. A
    bare name that a function binds is its local inside that function,
    not a reference."""
    skip = docstrings(tree)
    for name, line in loaded_names(tree):
        yield name, line, True
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, False
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
            and _DOTTED.fullmatch(node.value)
        ):
            for part in node.value.split("."):
                yield part, node.lineno, False


def unreferenced(library, referrers):
    """The (module file, qualified name) of each definition in the
    library files with no reference in the referrer files outside its
    own lines; a method is not referenced by a bare name, which would be
    a variable."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in referrers}
    refs = {}
    for path, tree in trees.items():
        for name, line, bare in references(tree):
            refs.setdefault(name, []).append((path, line, bare))
    out = []
    for path in library:
        for qualname, name, method, node in definitions(trees[path]):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(
                not (method and bare)
                and not (where == path and first <= line <= node.end_lineno)
                for where, line, bare in refs.get(name, ())
            ):
                out.append((path.name, qualname))
    return out


def test_sources_found():
    assert LIBRARY and len(REFERRERS) > len(LIBRARY)


def test_every_definition_has_a_caller():
    dead = [d for d in unreferenced(LIBRARY, REFERRERS) if d not in ALLOWED]
    assert not dead, f"no reference outside the tests: {dead}"


def test_allowlist_is_current():
    stale = set(ALLOWED) - set(unreferenced(LIBRARY, REFERRERS))
    assert not stale, f"allowed but referenced: {sorted(stale)}"


def test_detects_a_definition_without_a_caller(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        '"""doc: dead"""\n'
        "def used():\n    return dead_loop()\n"
        "def dead():\n    return dead()\n"
        "def dead_loop():\n    return used()\n"
        "class Box:\n"
        "    def size(self):\n        return self.size()\n"
        "    def named(self):\n        return 0\n"
        "    def shadowed(self):\n        return 0\n"
        "shadowed = 1\n"
        "TRACED = ('Box.named',)\n"
        "def rank():\n    return 0\n"
        "def by_argument(rank):\n    return rank\n"
        "def by_assignment():\n    rank = 1\n    return rank\n"
        "def by_loop():\n    for rank in ():\n        pass\n    return rank\n"
        "def by_comprehension():\n    return [rank for rank in ()]\n"
        "print(shadowed, Box, by_argument, by_assignment, by_loop, by_comprehension)\n"
    )
    found = unreferenced([module], [module])
    assert found == [
        ("m.py", "dead"),
        ("m.py", "Box.size"),
        ("m.py", "Box.shadowed"),
        ("m.py", "rank"),
    ]
