"""Every public top-level function and class in src/cirlite has a caller,
and only the store touches files.

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

# Calls that open, read, write or probe a file; store.py alone makes them,
# so every input is read by one rule and every output written by one.
FILE_CALLS = {"open", "read_bytes", "read_text", "write_bytes", "write_text", "is_file",
              "exists"}


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


def file_calls(package: Path) -> list[str]:
    """module:line: name of every FILE_CALLS call in package outside store.py."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "store.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FILE_CALLS:
                    found.append(f"{path.stem}:{node.lineno}: {name}")
    return found


def test_only_the_store_touches_files():
    assert file_calls(PACKAGE) == []


def unpassed_keyword_only_parameters(package: Path, callers: list[Path]) -> list[str]:
    """module.function(name) for every keyword-only parameter of a public
    top-level function in package that no call in callers passes by that
    keyword. Such a parameter is a setting nothing sets: a constant."""
    passed = set()
    for path in callers:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed.update((name, kw.arg) for kw in node.keywords if kw.arg)
    unpassed = []
    for path in sorted(package.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                unpassed += [f"{path.stem}.{node.name}({arg.arg})" for arg in node.args.kwonlyargs
                             if (node.name, arg.arg) not in passed]
    return unpassed


def test_every_keyword_only_parameter_is_passed():
    callers = [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
               *sorted((ROOT / "benchmarks").glob("*.py"))]
    assert unpassed_keyword_only_parameters(PACKAGE, callers) == []
