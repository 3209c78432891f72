"""The package namespace: its public names resolve on first use (PEP 562),
and each CLI command imports only the modules it runs."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hochcalc

ROOT = Path(__file__).resolve().parent.parent
# a fresh interpreter with this checkout's src first on its path
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
)


@pytest.mark.parametrize("name", hochcalc.__all__)
def test_public_name_is_the_object_of_its_module(name):
    obj = getattr(hochcalc, name)
    if isinstance(obj, types.ModuleType):
        assert obj is importlib.import_module(f"hochcalc.{name}")
    else:
        assert obj.__module__.startswith("hochcalc.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_dir_lists_the_public_names():
    listed = dir(hochcalc)
    assert set(hochcalc.__all__) <= set(listed)
    assert "__version__" in listed


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hochcalc import *", namespace)
    assert {name: namespace[name] for name in hochcalc.__all__} == {
        name: getattr(hochcalc, name) for name in hochcalc.__all__
    }


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hochcalc.no_such_name


def test_from_import_of_a_submodule_not_in_all():
    from hochcalc import identities

    assert identities is importlib.import_module("hochcalc.identities")
    assert "identities" not in hochcalc.__all__


def test_import_alone_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hochcalc; "
         "print(sorted(m for m in sys.modules if m.startswith('hochcalc.')))"],
        capture_output=True, text=True, env=CHILD_ENV, check=True,
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, absent", [
    pytest.param(["section8", "--char", "3", "--max-poly-degree", "0"],
                 {"cohomology", "ainf", "obstruction", "spectral", "identities"}, id="section8"),
    pytest.param(["--in", "dual_numbers_f3.json", "hh", "--p-max", "1"],
                 {"laurent", "ainf", "obstruction", "spectral", "identities"}, id="hh"),
    pytest.param(["--in", "tower_f2_a4_extendable.json", "obstruct", "--page", "2"],
                 {"laurent", "spectral", "identities"}, id="obstruct"),
    pytest.param(["--in", "tower_f2_a4_extendable.json", "extend", "--to", "5"],
                 {"laurent", "spectral", "identities"}, id="extend"),
    pytest.param(["--in", "dual_numbers_f3.json", "props", "--trials", "2"],
                 {"laurent", "obstruction", "spectral"}, id="props"),
])
def test_command_imports_only_its_modules(tmp_path, argv, absent):
    """``python -m hochcalc.cli`` loads none of the modules a command does
    not run, as listed by ``-X importtime``."""
    argv = [str(ROOT / "fixtures" / a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hochcalc.cli",
         "--out", str(tmp_path / "r.json")] + argv,
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode in (0, 3), proc.stderr
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "hochcalc.exactla" in loaded
    assert not {f"hochcalc.{m}" for m in absent} & loaded

