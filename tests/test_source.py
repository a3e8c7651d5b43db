"""Static checks on the package source."""

import ast
from pathlib import Path

import vlcopt

PACKAGE = Path(vlcopt.__file__).resolve().parent


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the code reads, quoted annotations ("Link") included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = (node.returns if isinstance(node, ast.FunctionDef)
                      else getattr(node, "annotation", None))
        for quoted in ast.walk(annotation) if annotation is not None else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                names |= _names_read(ast.parse(quoted.value, mode="eval"))
    return names


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read anywhere in the module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _names_read(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_package_has_no_unused_imports():
    # __init__.py imports only to re-export
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
