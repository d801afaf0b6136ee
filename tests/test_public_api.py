"""Every module's ``__all__`` names only what the module defines.

A name left in ``__all__`` after its definition is removed breaks
``from orbit_localize.<module> import *`` but no ordinary import, so it
is checked here directly.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import SL2, SL2_VERIFY, SU3
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
    # scipy.special adds ~23 MB of resident memory to a process.  The
    # package needs none of scipy: the hyperboloid oracle's J0 is numpy's.
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


def _fresh_main(argvs):
    """Exit codes of cli.main on each argv in one fresh interpreter, and
    whether scipy was imported afterwards."""
    src = str(Path(orbit_localize.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys\n"
            "from orbit_localize.cli import main\n"
            f"codes = [main(argv) for argv in {argvs!r}]\n"
            "print(codes, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1]


@pytest.mark.parametrize("argv,cfg", [
    (["oracle"], SL2),
    (["calibrate"], SL2),
    (["verify", "--suite", "all"], SL2_VERIFY),
    (["cycle-limit"], SL2),
], ids=["oracle", "calibrate", "verify-all", "cycle-limit"])
def test_sl2_command_leaves_scipy_unloaded(tmp_path, argv, cfg):
    # The hyperboloid oracle (oracle, calibrate and the oracle suite) takes
    # J0 from numpy alone, so no sl(2,R) command pays scipy's import.
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(cfg))
    argv = argv + ["--config", str(path), "--out", str(tmp_path / "out")]
    assert _fresh_main([argv]) == "[0] False"


def test_other_su3_and_sl2_commands_leave_scipy_unloaded(tmp_path):
    su3, sl2 = tmp_path / "su3.json", tmp_path / "sl2.json"
    su3.write_text(json.dumps(SU3))
    sl2.write_text(json.dumps(SL2))
    out = str(tmp_path / "out")
    argvs = [[command, "--config", str(su3), "--out", out]
             for command in ("eval", "oracle", "calibrate", "cycle-limit")]
    argvs.append(["eval", "--config", str(sl2), "--out", out])
    # cycle-limit refuses su(3) with exit 2.
    assert _fresh_main(argvs) == "[0, 0, 0, 2, 0] False"
