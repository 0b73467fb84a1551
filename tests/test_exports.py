"""Every exported name resolves."""

import importlib

import pytest

MODULES = ("algebra", "ribbon", "paths", "coords", "flips", "forms", "fuzz", "cli")


@pytest.mark.parametrize("module", ("spineforms",) + tuple("spineforms." + m for m in MODULES))
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
