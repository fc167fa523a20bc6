"""Every public name a module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

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
