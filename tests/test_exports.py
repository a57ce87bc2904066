"""Every name a ``repro`` package exports must exist.

``from repro.x import *`` and the documented package surface read the
``__all__`` lists; a name left there after its definition is deleted only
fails when someone star-imports it.  This walks every package under
``repro`` and resolves each exported name.
"""

import importlib
import pkgutil

import pytest

import repro


def repro_packages():
    walk = pkgutil.walk_packages(repro.__path__, "repro.")
    return sorted(["repro", *(info.name for info in walk if info.ispkg)])


@pytest.mark.parametrize("name", repro_packages())
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_the_walk_sees_the_packages():
    assert {"repro.hybrid", "repro.util", "repro.analysis", "repro.graphs"} <= set(
        repro_packages()
    )
