"""Every module's ``__all__`` names only what the module defines.

A name left in ``__all__`` after its definition is removed breaks
``from orbit_localize.<module> import *`` but no ordinary import, so it
is checked here directly.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbit_localize

MODULES = ("algebra", "fixedpoints", "localize", "oracle", "geometry_sl2",
           "suites", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(f"orbit_localize.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from orbit_localize.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special adds ~23 MB of resident memory to every CLI process;
    # only the hyperboloid oracle needs it, and imports it when called.
    src = str(Path(orbit_localize.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, orbit_localize, orbit_localize.cli; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_su3_verify_all_leaves_scipy_unloaded(tmp_path):
    # Importing scipy costs a fresh process about a quarter of a second;
    # the compact verify suites need none of it.
    src = str(Path(orbit_localize.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cfg = tmp_path / "su3.json"
    cfg.write_text('{"algebra": {"family": "su", "n": 3}, "weight": [0.9, 0.4],'
                   ' "oracle": {"seed": 1}}')
    code = ("import sys\n"
            "from orbit_localize.cli import main\n"
            f"code = main(['verify', '--suite', 'all', '--config', {str(cfg)!r},"
            f" '--out', {str(tmp_path / 'report.txt')!r}])\n"
            "print(code, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 False"
