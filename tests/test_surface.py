"""The package's public surface: ``__all__``, README's entry points, the
imports each module uses, the environment no module reads, and the NumPy
modules a run loads."""

import ast
import json
import os
import re
import subprocess
import sys
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


ENVIRONMENT = {"environ", "environb", "getenv"}


def environment_reads(source):
    """Lines of a module that read the process environment through
    ``os``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENVIRONMENT for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_environment_reads_are_found():
    source = ("import os\nfrom os import getenv\nos.environ.get('A')\n"
              "os.getenv('B')\nos.environb\nos.path.join('c')\n")
    assert environment_reads(source) == [2, 3, 4, 5]


def test_no_module_reads_the_environment():
    # every setting comes from the command line or the spec
    package = Path(lamlab.__file__).parent
    reads = {path.name: environment_reads(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in reads.items() if lines} == {}


# builds a model, then runs one small spec per command that needs no
# user-seeded draw; prints the numpy.random modules loaded by then that
# importing NumPy alone (which loads them all before NumPy 2) did not load
NO_RANDOM_RUN = """
import json, sys
from pathlib import Path
import numpy
numpy_only = set(sys.modules)
import lamlab.cli
from lamlab import (GOLDEN_MEAN, build_model, builtin_harmonic_stencil,
                    builtin_n_well)
build_model(builtin_n_well(2), builtin_harmonic_stencil(2),
            omega=[GOLDEN_MEAN] * 2)
tmp = Path(sys.argv[1])
for command, spec in json.loads(sys.argv[2]).items():
    path = tmp / (command + ".json")
    path.write_text(json.dumps(spec))
    rc = lamlab.cli.main([command, "--spec", str(path),
                          "--out", str(tmp / command), "--threads", "1"])
    assert rc == 0, (command, rc)
print(json.dumps(sorted(m for m in set(sys.modules) - numpy_only
                        if m.startswith("numpy.random"))))
"""


def test_model_build_and_commands_leave_numpy_random_unloaded(tmp_path):
    # a fresh interpreter: the test run itself has loaded numpy.random
    base = {"model": {}, "omega": "golden", "eps": "eps1/2", "p": [0.3, 0.7],
            "window_radius": 8}
    specs = {
        "continue": base,
        "lamination": dict(base, window_radius=4, n_samples=2),
        "cantorus": dict(base, p=[0.5, 0.5], n_samples=2),
        "measure": dict(base, n=4, injectivity={"spacing": 0.5}),
        "sweep": {k: v for k, v in base.items() if k != "eps"}
        | {"eps_values": ["eps1/2"], "window_radius": 4},
    }
    src = str(Path(lamlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", NO_RANDOM_RUN, str(tmp_path), json.dumps(specs)],
        env=env, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == []
