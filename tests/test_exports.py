"""Every exported name resolves, and removed names stay removed."""

import importlib
import inspect
import pkgutil

import pytest

import bezquad
from bezquad import PlanarRegion, SolidModel, patch_rule

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
