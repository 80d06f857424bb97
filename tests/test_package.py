"""Every routine has one import path: the module that defines it."""

import os
import subprocess
import sys
import types

import oraclelab


def test_package_namespace_holds_only_the_version():
    # submodules appear as attributes once imported; anything else would be
    # a second name for a routine of one of them
    own = {
        name
        for name, value in vars(oraclelab).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert own == set()
    assert not hasattr(oraclelab, "__all__")
    assert isinstance(oraclelab.__version__, str)


def test_python_dash_m_runs_the_cli():
    path = [os.path.dirname(os.path.dirname(oraclelab.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-m", "oraclelab", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, f"oraclelab {oraclelab.__version__}\n")
