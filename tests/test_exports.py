"""Every exported name resolves, the package exports each module's
__all__, and removed names stay removed."""

import importlib
import inspect
import pkgutil

import pytest

import bezquad
from bezquad import PlanarRegion, SolidModel, errors, patch_rule

_MODULES = ["bezquad"] + [
    f"bezquad.{m.name}" for m in pkgutil.iter_modules(bezquad.__path__)
]

# name -> the module that used to define it
_REMOVED = {
    "surface_rule": "bezquad.surface",
    "untrimmed_rule": "bezquad.surface",
    "apply_surface_rule": "bezquad.surface",
    "closure_check": "bezquad.trimfit",
    "is_polynomial_curve": "bezquad.planar",
}


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    for attr in exported:
        assert getattr(mod, attr, None) is not None, f"{name}.{attr}"
    assert not set(_REMOVED) & set(exported)


def test_removed_names_are_gone():
    for attr, owner in _REMOVED.items():
        assert not hasattr(bezquad, attr)
        assert not hasattr(importlib.import_module(owner), attr)
    assert not hasattr(PlanarRegion, "bbox") and not hasattr(SolidModel, "bbox")
    assert "patch_index" not in inspect.signature(patch_rule).parameters


def test_package_exports_every_module_all():
    modules = [importlib.import_module(name) for name in sorted(_MODULES[1:])]
    names = [attr for mod in modules for attr in getattr(mod, "__all__", [])]
    assert bezquad.__all__ == names + ["__version__"]
    # the module lists held these while the package's own list omitted them
    added = {"rule_csv_lines", "moment_csv_lines", "Num", "Var", "Neg", "BinOp", "Call"}
    assert added <= set(bezquad.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from bezquad import *", namespace)
    for attr in bezquad.__all__:
        assert namespace[attr] is getattr(bezquad, attr), attr


def test_errors_all_lists_the_five_exception_types():
    assert set(errors.__all__) == {
        "ValidationError", "ConditioningError", "QuadratureError", "ParseError", "EvalError"
    }
    assert all(issubclass(getattr(errors, attr), Exception) for attr in errors.__all__)
