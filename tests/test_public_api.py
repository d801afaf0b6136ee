"""Every module's ``__all__`` names only what the module defines.

A name left in ``__all__`` after its definition is removed breaks
``from orbit_localize.<module> import *`` but no ordinary import, so it
is checked here directly.
"""

import importlib

import pytest

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
