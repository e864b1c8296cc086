"""The package's public surface: ``__all__``, the layers each name loads,
README's entry points, the imports each module uses, the environment no
module reads, the counts no function truncates, and the NumPy modules a
run loads."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lamlab
from lamlab import measure

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = str(Path(lamlab.__file__).resolve().parent.parent)


def fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this checkout's
    lamlab; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_every_exported_name_resolves_once():
    table = [name for names in lamlab._EXPORTS.values() for name in names]
    assert len(table) == len(set(table))
    assert sorted(table) == lamlab.__all__
    missing = [name for name in lamlab.__all__ if not hasattr(lamlab, name)]
    assert missing == []


def test_every_name_is_the_object_of_its_home_layer():
    for layer, names in lamlab._EXPORTS.items():
        home = importlib.import_module(f"lamlab.{layer}")
        for name in names:
            value = getattr(lamlab, name)
            assert value is getattr(home, name), name
            # the table names the defining layer, not one that imports it
            assert getattr(value, "__module__", home.__name__) == \
                home.__name__, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lamlab import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert sorted(bound) == sorted(lamlab.__all__)
    assert set(lamlab.__all__) <= set(dir(lamlab))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'lamlab' has no attribute 'x'$"):
        lamlab.x


# prints the lamlab submodules and NumPy modules loaded after argv[1] runs
LOADED = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("lamlab.", "numpy")))))
"""


def test_import_lamlab_loads_no_layer_and_no_numpy():
    assert json.loads(fresh_python(LOADED, "import lamlab")) == []


def test_model_names_load_only_their_layers():
    # a caller that only builds a model compiles three modules, not ten
    code = ("from lamlab import build_model, builtin_harmonic_stencil, "
            "builtin_n_well")
    loaded = json.loads(fresh_python(LOADED, code))
    assert [m for m in loaded if m.startswith("lamlab.")] == [
        "lamlab.errors", "lamlab.lattice", "lamlab.model"]


def test_a_layer_resolves_after_a_bare_import():
    code = ("import lamlab\n"
            "layer = lamlab.continuation\n"
            "assert layer.action is lamlab.action\n"
            "print(layer.__name__)")
    assert fresh_python(code).split() == ["lamlab.continuation"]


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
    package = Path(lamlab.__file__).parent
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted(package.glob("*.py"))}
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


def truncated_parameters(source):
    """(line, name) of each ``int(name)`` call on a parameter of a
    function that encloses it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "int" and len(call.args) == 1
                    and isinstance(call.args[0], ast.Name)
                    and call.args[0].id in params):
                found.add((call.lineno, call.args[0].id))
    return sorted(found)


def test_truncated_parameters_are_found():
    source = ("def f(a, b, *, c):\n    a = int(a)\n    x = int(len(b))\n"
              "    def g(d):\n        return int(c) + int(d) + int(x)\n"
              "h = lambda e: int(e)\n")
    assert truncated_parameters(source) == [(2, "a"), (5, "c"), (5, "d"),
                                            (6, "e")]


def test_no_function_truncates_its_parameters():
    # a count that is not an integer is refused, never rounded down
    package = Path(lamlab.__file__).parent
    found = {path.name: truncated_parameters(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == {}


def harmonic(d, range_):
    base = lamlab.builtin_harmonic_stencil(1)
    return lamlab.InteractionStencil(d, range_, base.energy, base.gradient,
                                     base.hessian)


def bare_labels(radius):
    box = lamlab.Box.centered(radius, 1)
    return lamlab.Configuration(box, 0.5 * (box.sites()[:, 0] % 2))


def cantorus(m, v):
    phi = lamlab.step_hull_from_simplex([1.0], m.potential.minima)
    return lamlab.extract_cantorus(m, m.constants.eps1 / 2.0, phi,
                                   [lamlab.GOLDEN_MEAN],
                                   lamlab.Box.centered(6, 1), v)


# a call taking the count under test on the two-well (or, for the
# cantorus, one-well) model, and a value of it that runs
COUNTS = {
    "n_samples": (lambda m, v: lamlab.continue_lamination(
        m, m.constants.eps1 / 2.0, [0.3, 0.7], [lamlab.GOLDEN_MEAN],
        lamlab.Box.centered(8, 1), v), 2),
    "cantorus n_samples": (cantorus, 2),
    "M1": (lambda m, v: lamlab.truncation_consistency(
        m, m.constants.eps1 / 2.0, bare_labels(12), 1e-12, v, 6), 2),
    "M2": (lambda m, v: lamlab.truncation_consistency(
        m, m.constants.eps1 / 2.0, bare_labels(12), 1e-12, 0, v), 2),
    "k_max": (lambda m, v: lamlab.check_birkhoff(bare_labels(4), v), 2),
    "n": (lambda m, v: measure._ball_table(lamlab.Box.centered(4, 1), v), 2),
    "d": (lambda m, v: harmonic(v, 1), 1),
    "range_": (lambda m, v: harmonic(1, v), 1),
}


@pytest.mark.parametrize("name", COUNTS)
def test_counts_are_refused_not_truncated(name, model1, model1_single):
    call, good = COUNTS[name]
    model = model1_single if name.startswith("cantorus") else model1
    param = name.split()[-1]
    for value, kind in [(2.5, "float"), (np.float64(2.0), "float64"),
                        ("2", "str")]:
        with pytest.raises(TypeError) as caught:
            call(model, value)
        assert str(caught.value) == f"{param} must be an integer, not {kind}"
    # NumPy integers are integers
    call(model, np.int64(good))


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
    out = fresh_python(NO_RANDOM_RUN, str(tmp_path), json.dumps(specs))
    assert json.loads(out.splitlines()[-1]) == []


# runs one command in this interpreter, then prints the lamlab modules
# and the standard-library number modules loaded by then
COMMAND_RUN = """
import json, sys
from lamlab.cli import main
assert main(json.loads(sys.argv[1])) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("lamlab")
                        or m in ("fractions", "decimal", "_decimal",
                                 "_pydecimal"))))
"""

# the layers every spec command loads: the CLI's own imports
SHARED_LAYERS = ["lamlab", "lamlab.birkhoff", "lamlab.cli",
                 "lamlab.continuation", "lamlab.errors", "lamlab.hull",
                 "lamlab.lattice", "lamlab.model"]
BASE_SPEC = {"model": {}, "omega": "golden", "eps": "eps1/2",
             "p": [0.3, 0.7], "window_radius": 8}


COMMAND_LAYERS = [
    ("continue", BASE_SPEC, []),
    ("lamination", dict(BASE_SPEC, window_radius=4, n_samples=2), []),
    ("sweep", {k: v for k, v in BASE_SPEC.items() if k != "eps"}
     | {"eps_values": ["eps1/2"], "window_radius": 4}, []),
    ("measure", dict(BASE_SPEC, n=4, injectivity={"spacing": 0.5}),
     ["lamlab.measure"]),
    ("cantorus", dict(BASE_SPEC, p=[0.5, 0.5], n_samples=2),
     ["lamlab.twistmap"]),
    ("orbit", {"model": {}, "eps": "eps1/2", "window_radius": 4},
     ["lamlab.twistmap"]),
    ("verify", None, ["lamlab.measure", "lamlab.verification"]),
]


@pytest.mark.parametrize("command,spec,own", COMMAND_LAYERS,
                         ids=[case[0] for case in COMMAND_LAYERS])
def test_a_command_loads_only_the_layers_it_runs(tmp_path, command, spec,
                                                 own):
    # and never fractions or decimal: the rotation check finds its best
    # rational approximation in Python integers
    argv = [command, "--out", str(tmp_path / "o"), "--threads", "1"]
    if spec is not None:
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        argv += ["--spec", str(path)]
    # verify prints its rows first
    out = fresh_python(COMMAND_RUN, json.dumps(argv)).splitlines()[-1]
    assert json.loads(out) == sorted(SHARED_LAYERS + own)
