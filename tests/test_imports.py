"""Each layer imports only what it needs: the package re-exports nothing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("adiabatic", "algebra", "casimir", "lattice")


def _fresh(code: str, cwd=None) -> str:
    """The stdout of `code` run in a fresh interpreter that imports the package from src."""
    # a fresh interpreter: this one already has numpy, scipy and every layer loaded
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout


# dataclasses imports inspect, about 10 ms of a fresh process: the
# numpy-free layers build their records on platevac._record instead
NO_INSPECT = ("dataclasses", "inspect")


@pytest.mark.parametrize("module,absent", [
    ("platevac.algebra", ("numpy", "scipy", *NO_INSPECT)),
    ("platevac.lattice", ("scipy",)),
    ("platevac.casimir", ("numpy", "scipy", *NO_INSPECT)),
    ("platevac.adiabatic", ("numpy", "scipy", *NO_INSPECT)),
    ("platevac.cli", ("numpy", "scipy", *NO_INSPECT)),
])
def test_layer_import_loads_only_its_dependencies(module, absent):
    loaded = _fresh(f"import sys, {module}; print(*sorted(sys.modules))").split()
    assert not [name for name in loaded if name.split(".")[0] in absent]


@pytest.mark.parametrize("argv,absent", [
    # the zeta route's constant is a float, and no route is exact-rational
    (["casimir", "--L", "1"], ("json", "fractions", "decimal")),
    (["adiabatic", "--L0", "1", "--L1", "2", "--T", "2"], ("json", "fractions", "decimal")),
    (["cocycle", "--builtin", "poincare21", "--charges", "1,2,3"], ()),
], ids=["casimir", "adiabatic", "cocycle"])
def test_cli_run_loads_no_unused_stdlib_module(tmp_path, argv, absent):
    # cli imports configparser for --config or a flag value, json for cocycle
    out = _fresh(f"""
import sys
from platevac.cli import main
code = main({[*argv, "--outdir", "out"]!r})
print(code, *sorted(sys.modules))
""", cwd=tmp_path).splitlines()[-1].split()
    assert out[0] == "0"
    assert not [name for name in out[1:] if name in {*NO_INSPECT, "configparser", *absent}]


@pytest.mark.parametrize("argv,code,ran", [
    (["casimir", "--L", "1"], 0, {"casimir"}),
    (["adiabatic", "--L0", "1", "--L1", "2", "--T", "2"], 0, {"adiabatic"}),
    (["cocycle", "--builtin", "poincare21", "--charges", "1,2,3"], 0, {"algebra"}),
    (["algebra-verify", "--demo", "contradiction"], 0, {"lattice"}),
    # exit 2 from inside a handler and from the option parsing
    (["cocycle", "--builtin", "abelian2", "--charges-raw", "P1,Q=1"], 2, {"algebra"}),
    (["casimir", "--config", "missing.ini"], 2, set()),
], ids=["casimir", "adiabatic", "cocycle", "algebra-verify", "bad-charges", "no-config"])
def test_cli_runs_only_the_layers_its_subcommand_calls(tmp_path, argv, code, ran):
    # a lazy layer becomes a plain module when it first runs
    out = _fresh(f"""
import sys, types
from platevac.cli import main
code = main({[*argv, "--outdir", "out"]!r})
ran = [n for n in {LAYERS!r} if type(sys.modules["platevac." + n]) is types.ModuleType]
print(code, "numpy" in sys.modules, *ran)
""", cwd=tmp_path).splitlines()[-1].split()
    # numpy comes in through lattice alone
    assert out == [str(code), str("lattice" in ran), *sorted(ran)]


@pytest.mark.parametrize("first,second", [("cli", "lattice"), ("lattice", "cli")])
def test_cli_layers_are_the_imported_modules(first, second):
    out = _fresh(f"""
import sys, platevac.{first}
before = sys.modules.get("platevac.lattice")
import platevac.{second}
module = sys.modules["platevac.lattice"]
print(before in (None, module), platevac.lattice is module, platevac.cli.lat is module,
      platevac.lattice.LatticeGeometry.__module__)
""")
    assert out.split() == ["True", "True", "True", "platevac.lattice"]


def test_vars_of_a_lazy_layer_lists_its_functions():
    # the benchmark tracer wraps the functions it finds in vars() of each
    # platevac module in sys.modules, after `import platevac.cli` and before main
    out = _fresh("""
import sys, platevac.cli
print(*vars(sys.modules["platevac.casimir"]))
print(*vars(sys.modules["platevac.exactlin"]))
""")
    casimir, exactlin = (line.split() for line in out.splitlines())
    assert "casimir_energy_per_area" in casimir and "rref" in exactlin


def test_lattice_norms_load_no_numpy_random():
    # importing numpy.random takes 10-12 ms in a fresh process; the Lanczos
    # start vector of a certified norm is a fixed sequence, not a random draw
    out = _fresh("""
import sys, platevac.lattice as lat
lat.verify_central_relation(lat.LatticeGeometry(1, 640, 8.0 / 640), (1.0, 2.0))
lat.verify_poincare_closure(lat.LatticeGeometry(2, 16, 0.5, "periodic"), 1.0)
print(*sorted(sys.modules))
""")
    assert "platevac.lattice" in out.split()
    assert not [name for name in out.split() if name.startswith("numpy.random")]
