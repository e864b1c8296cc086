"""The package's public surface: ``__all__``, README's entry points, and
imports each module uses."""

import ast
import re
from pathlib import Path

import lamlab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves_once():
    assert len(lamlab.__all__) == len(set(lamlab.__all__))
    missing = [name for name in lamlab.__all__ if not hasattr(lamlab, name)]
    assert missing == []


def test_readme_entry_points_are_exported():
    text = README.read_text()
    # the bulleted list that follows the heading line
    section = text.split("Key entry points:", 1)[1].split("\n\n")[1]
    names = set(re.findall(r"`([A-Za-z_]\w*)", section))
    assert {"build_model", "quasi_newton_continue", "run_suite"} <= names
    assert sorted(names - set(lamlab.__all__)) == []


def unused_imports(source):
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read, key=imported.get)


def test_unused_imports_are_found():
    source = "import os\nfrom a.b import c, d as e\nimport f.g\nc(f)\n"
    assert unused_imports(source) == ["os", "e"]


def test_modules_use_every_name_they_import():
    # __init__ imports names to export them
    package = Path(lamlab.__file__).parent
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
