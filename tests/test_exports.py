"""Every exported name resolves, and importing the package loads only
the standard library."""

import importlib
import os
import subprocess
import sys

import pytest

MODULES = ("algebra", "ribbon", "paths", "coords", "flips", "forms", "fuzz", "cli")


@pytest.mark.parametrize("module", ("spineforms",) + tuple("spineforms." + m for m in MODULES))
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_runtime_is_standard_library_only():
    # compare sys.modules around the import: site hooks load before it
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import spineforms, spineforms.cli, spineforms.fuzz\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "spineforms.fuzz" in added
    tops = {name.partition(".")[0] for name in added}
    assert tops - {"spineforms"} <= sys.stdlib_module_names


def test_flip_edge_is_exported_from_the_package():
    import spineforms
    from spineforms import flips

    assert spineforms.flip_edge is flips.flip_edge and "flip_edge" in spineforms.__all__
