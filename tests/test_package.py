"""Every routine has one import path: the module that defines it."""

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
