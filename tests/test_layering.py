"""Every relative import inside the package points strictly down the layers.

The order is ordinals < words < automata < semantics < gapcode <
{logic, growth} < examples < cli.  ``logic`` and ``growth`` share a
rank, so neither may import the other.  Function-local imports count
too; ``__init__`` re-exports the public names and is exempt.
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


def relative_imports(path: pathlib.Path):
    """(target module, line) for every relative import in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0], node.lineno
            else:
                for alias in node.names:
                    yield alias.name, node.lineno


def test_imports_point_down_the_layers():
    package = pathlib.Path(ordinalia.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.stem != "__init__")
    assert {p.stem for p in modules} == set(RANK), "every module needs a rank"
    upward = [
        f"{p.stem}:{line} imports {target}"
        for p in modules
        for target, line in relative_imports(p)
        if RANK[target] >= RANK[p.stem]
    ]
    assert not upward, upward
