"""Every relative import inside the package points strictly down the layers.

The order is ordinals < words < automata < semantics < gapcode <
{logic, growth} < examples < cli.  ``logic`` and ``growth`` share a
rank, so neither may import the other.  Function-local imports count
too; ``__init__`` re-exports the public names and is exempt.  A name
with a leading underscore is private to its module: no relative import
may name one.  Every name a module or test file imports at top level is
used in it.
"""

import ast
import pathlib

import ordinalia

RANK = {
    "ordinals": 0,
    "words": 1,
    "automata": 2,
    "semantics": 3,
    "gapcode": 4,
    "logic": 5,
    "growth": 5,
    "examples": 6,
    "cli": 7,
}


PACKAGE = pathlib.Path(ordinalia.__file__).parent
TESTS = pathlib.Path(__file__).parent


def relative_import_nodes(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node


def relative_imports(path: pathlib.Path):
    """(target module, line) for every relative import in the file."""
    for node in relative_import_nodes(path):
        if node.module:
            yield node.module.split(".")[0], node.lineno
        else:
            for alias in node.names:
                yield alias.name, node.lineno


def test_imports_point_down_the_layers():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert {p.stem for p in modules} == set(RANK), "every module needs a rank"
    upward = [
        f"{p.stem}:{line} imports {target}"
        for p in modules
        for target, line in relative_imports(p)
        if RANK[target] >= RANK[p.stem]
    ]
    assert not upward, upward


def test_no_private_name_is_imported_across_modules():
    private = [
        f"{p.stem}:{node.lineno} imports {alias.name}"
        for p in sorted(PACKAGE.glob("*.py"))
        for node in relative_import_nodes(p)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private


def unused_imports(path: pathlib.Path):
    """(name, line) for every top-level import the file never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    yield name, node.lineno


def test_every_top_level_import_is_used():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    files += sorted(TESTS.glob("*.py"))
    unused = [
        f"{p.parent.name}/{p.name}:{line} imports {name}"
        for p in files
        for name, line in unused_imports(p)
    ]
    assert not unused, unused
