"""Every public top-level function and class in src/cirlite has a caller.

A name counts as used when it is referenced in another part of the package
(its own definition and the package's re-exports in __init__.py do not
count), by the acceptance criteria, or by the benchmark, which also names
functions by string to wrap them. A function that only unit tests call is a
second code path to keep in step with the one the pipeline runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cirlite"

# Kept without a caller: the readable-rationale work builds on it.
EXCEPTIONS = {"greedy_decode"}


def _names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Identifiers referenced in tree (names, attributes, imports, strings),
    leaving out the subtree skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreferenced_public_names(package: Path, outside: list[Path]) -> list[str]:
    """module.name of every public top-level def or class in package that
    nothing references, in package or in the outside files."""
    modules = {path: _parse(path) for path in sorted(package.glob("*.py"))
               if path.name != "__init__.py"}
    used_outside = set().union(*(_names(_parse(path)) for path in outside))
    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in EXCEPTIONS or name in used_outside:
                continue
            if not any(name in _names(other, skip=node) for other in modules.values()):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_function_and_class_has_a_caller():
    outside = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "benchmarks").glob("*.py"))]
    assert unreferenced_public_names(PACKAGE, outside) == []
