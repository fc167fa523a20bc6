"""Every public name a module lists in ``__all__`` exists in it, and every name it imports
is read."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bispectral

MODULES = sorted(info.name for info in pkgutil.iter_modules(bispectral.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    module = importlib.import_module(f"bispectral.{name}")
    assert module.__all__
    namespace = {}
    exec(f"from bispectral.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


# the seven functions that evaluate Phi, each with arguments it accepts
POINT = ((0.7j, -0.3j), (0.4, -0.2), 1.5)
EVALUATORS = {"eval_phi_many": POINT + ([(0, 0)],), "eval_phi": POINT, "eval_psi": POINT,
              "apply_H1": POINT, "apply_H2": POINT, "apply_reduced_HS": POINT,
              "apply_dual_hamiltonian": (1,) + POINT}


@pytest.mark.parametrize("setting", ["quad", "step", "tail_tol", "half_width"])
@pytest.mark.parametrize("name", EVALUATORS)
def test_no_quadrature_setting(name, setting):
    # the step, the tail tolerance and the adaptive truncation are constants of wavefn
    with pytest.raises(TypeError, match=setting):
        getattr(bispectral, name)(*EVALUATORS[name], **{setting: 0.1})


@pytest.mark.parametrize("name", [name for name in MODULES if name != "__init__"])
def test_every_import_is_read(name):
    # no linter runs here: a name a module imports and never reads is dead weight
    path = Path(bispectral.__path__[0]) / f"{name}.py"
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert imported <= read, sorted(imported - read)
