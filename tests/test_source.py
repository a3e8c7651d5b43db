"""Static checks on the package source."""

import ast
from pathlib import Path

import vlcopt

PACKAGE = Path(vlcopt.__file__).resolve().parent

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound_name(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def _locals(fn: ast.AST) -> set[str]:
    """Names a function binds in its own scope: arguments, assignment and
    loop targets, imports, nested definitions and `except ... as` names,
    less those it declares global or nonlocal. Nested functions and classes
    and comprehension targets belong to scopes of their own."""
    a = fn.args
    bound = {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
             if x is not None}
    declared = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {_bound_name(alias) for alias in node.names}
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared |= set(node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            bound |= {node.name} if not isinstance(node, ast.Lambda) else set()
            continue
        if isinstance(node, ast.comprehension):
            todo.extend([node.iter, *node.ifs])
            continue
        todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read in a scope that sees the
    import: a read inside a function that binds the same name itself (or
    inside a function nested in one) reads that local, not the import.
    Quoted annotations ("Link") count as reads."""
    imports: dict[tuple[int, str], int] = {}
    reads: set[tuple[int, str]] = set()

    def resolve(name: str, chain: tuple) -> int:
        # the innermost enclosing function binding the name, else the module (0)
        return next((scope for scope, names in reversed(chain) if name in names), 0)

    def visit(node: ast.AST, chain: tuple) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) != "__future__"):
            scope = chain[-1][0] if chain else 0
            for alias in node.names:
                imports[(scope, _bound_name(alias))] = node.lineno
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add((resolve(node.id, chain), node.id))
        annotation = (node.returns if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      else getattr(node, "annotation", None))
        for quoted in ast.walk(annotation) if annotation is not None else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                visit(ast.parse(quoted.value, mode="eval"), chain)
        inner, body = chain, ()
        if isinstance(node, _FUNCTIONS):
            # decorators, defaults and annotations are read outside the body
            inner = chain + ((id(node), _locals(node)),)
            body = node.body if isinstance(node.body, list) else [node.body]
        for child in ast.iter_child_nodes(node):
            visit(child, inner if any(child is b for b in body) else chain)

    visit(tree, ())
    return [f"{name} (line {line})" for (scope, name), line in imports.items()
            if (scope, name) not in reads]


SHADOWED = """\
import math
from typing import Sequence

def total(xs: Sequence[float]) -> float:
    math = sum(xs)
    def twice() -> float:
        return 2 * math
    return twice()
"""


def test_a_local_of_the_same_name_hides_an_import():
    # every read of `math` is of `total`'s local; `Sequence` is read outside it
    assert _unused_imports(ast.parse(SHADOWED)) == ["math (line 1)"]
    seen = SHADOWED + "\ndef pi() -> float:\n    return math.pi\n"
    assert _unused_imports(ast.parse(seen)) == []


def test_package_has_no_unused_imports():
    # __init__.py imports only to re-export
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private names a module binds at its top level by a definition or an
    assignment, with their lines."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.update({name: node.lineno for name in names
                      if name.startswith("_") and not name.startswith("__")})
    return found


def test_every_private_module_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = {node.id for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}: {name} (line {line})" for module, tree in trees.items()
              for name, line in _private_definitions(tree).items() if name not in reads]
    assert unread == []
