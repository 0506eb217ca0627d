"""Every module of the package star-imports, so no ``__all__`` names a missing object,
the package exports exactly the names its modules list in ``__all__``, no module
imports a private numpy module or calls ``numpy.savetxt``, the pipeline names no system
class, and every benchmark wrap point exists."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path
from types import ModuleType

import pytest

import falsikit

MODULES = sorted(info.name for info in pkgutil.iter_modules(falsikit.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from falsikit.{module} import *", namespace)
    assert set(getattr(falsikit, module).__dict__.get("__all__", ())) <= set(namespace)


def _private_numpy_names(source: str) -> list:
    """The numpy names a module imports, or reaches as an attribute of its numpy alias,
    that pass through a private part (one that starts with a single ``_``)."""
    names, aliases = [], set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    names.append(alias.name)
                    aliases.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    names += [f"numpy.{node.attr}" for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in aliases]
    return [name for name in names if any(part.startswith("_") and not part.startswith("__")
                                          for part in name.split("."))]


def test_private_numpy_names_are_found():
    source = ("import numpy as np\nimport numpy.lib._stride_tricks_impl\n"
              "from numpy._core import umath\nnp._core.multiarray.c_einsum\nnp.__version__\n")
    assert _private_numpy_names(source) == ["numpy.lib._stride_tricks_impl", "numpy._core.umath",
                                            "numpy._core"]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_numpy_module(module):
    # numpy's public functions, not the private modules behind them (such as
    # ``numpy._core.multiarray.c_einsum`` behind ``np.einsum``), which numpy may change
    path = importlib.util.find_spec(f"falsikit.{module}").origin
    assert _private_numpy_names(Path(path).read_text()) == []


def _savetxt_calls(source: str) -> list:
    """The lines of ``source`` that call ``numpy.savetxt``, through a numpy alias or the
    name imported from numpy."""
    aliases, names = set(), set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names |= {alias.asname or alias.name for alias in node.names
                      if alias.name == "savetxt"}
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "savetxt"
        and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases
        or isinstance(node.func, ast.Name) and node.func.id in names)]


def test_savetxt_calls_are_found():
    source = ("import numpy as np\nimport numpy\nfrom numpy import savetxt as save\n"
              "np.savetxt('a', x)\nnumpy.savetxt('b', x)\nsave('c', x)\nother.savetxt('d', x)\n")
    assert sorted(_savetxt_calls(source)) == [4, 5, 6]


@pytest.mark.parametrize("module", MODULES)
def test_no_savetxt(module):
    # every text artifact is formatted by pipeline's one writer, which writes savetxt's
    # bytes without its per-row Python loop
    path = importlib.util.find_spec(f"falsikit.{module}").origin
    assert _savetxt_calls(Path(path).read_text()) == []


# the system classes and the operator of one structure, which only ``dynamics`` names:
# the pipeline asks the parsed structure (``ShearBuildingModel``) instead
_SYSTEM_NAMES = {"IsolatedSystem", "TmdFrameSystem", "shared_operator"}


def _system_names(source: str) -> list:
    """The lines of ``source`` that name one of ``_SYSTEM_NAMES``, as a name, an attribute
    or an imported name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines += [node.lineno for alias in node.names
                      if alias.name.split(".")[-1] in _SYSTEM_NAMES]
        elif (isinstance(node, ast.Name) and node.id in _SYSTEM_NAMES
              or isinstance(node, ast.Attribute) and node.attr in _SYSTEM_NAMES):
            lines.append(node.lineno)
    return sorted(lines)


def test_system_names_are_found():
    source = ("from .dynamics import IsolatedSystem as S, ShearBuildingModel\n"
              "import falsikit.dynamics as d\nd.TmdFrameSystem(frame)\n"
              "A = ShearBuildingModel.shared_operator(b)\nx: TmdFrameSystem = S(b)\n"
              "s = 'IsolatedSystem'\n")
    assert _system_names(source) == [1, 3, 4, 5]


def test_pipeline_names_no_system():
    # one module, dynamics, decides which structure a run simulates
    path = importlib.util.find_spec("falsikit.pipeline").origin
    assert _system_names(Path(path).read_text()) == []


def test_package_exports_the_modules_public_names():
    exported = {name for name, value in vars(falsikit).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    public = set().union(*(getattr(importlib.import_module(f"falsikit.{module}"), "__all__", ())
                           for module in MODULES))
    assert exported == public


# the benchmark's wrap points that name code removed on purpose, which the benchmark
# reports as missing spans until it is repaired (ROADMAP item 1)
_STALE_WRAP_POINTS = {"pipeline.simulate_batch", "dynamics.IsolatedSystem.rhs"}


def _wrap_points(source: str) -> list:
    """The (owner, attribute) of each ``tracer.wrap`` and ``tracer.count_calls`` call in
    ``source``, the owner as the dotted name it is written with."""
    points = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "tracer"
                and node.func.attr in ("wrap", "count_calls")):
            owner, attr = node.args[:2]
            points.append((ast.unparse(owner), attr.value))
    return points


def test_benchmark_wrap_points_exist():
    # a refactor that renames or drops what benchmarks/spans.py wraps loses a per-layer span
    source = (Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py").read_text()
    points = _wrap_points(source)
    assert len(points) >= 10
    missing = []
    for owner, attr in points:
        module, *rest = owner.split(".")
        target = importlib.import_module(f"falsikit.{module}")
        for name in rest:
            target = getattr(target, name)
        if not hasattr(target, attr) and f"{owner}.{attr}" not in _STALE_WRAP_POINTS:
            missing.append(f"{owner}.{attr}")
    assert missing == []
