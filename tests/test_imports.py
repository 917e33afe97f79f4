"""Each layer imports only what it needs: the package re-exports nothing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module,absent", [
    ("platevac.algebra", ("numpy", "scipy")),
    ("platevac.lattice", ("scipy",)),
    ("platevac.casimir", ("numpy", "scipy")),
    ("platevac.adiabatic", ("numpy", "scipy")),
    ("platevac.cli", ("scipy",)),
])
def test_layer_import_loads_only_its_dependencies(module, absent):
    # a fresh interpreter: this one already has numpy and scipy loaded
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = f"import sys, {module}; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert not [name for name in loaded if name.split(".")[0] in absent]
