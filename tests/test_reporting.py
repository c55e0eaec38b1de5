import importlib
import pkgutil

import pytest

import fedleak

# every fedleak module that declares __all__ (the CLI module does not)
MODULES = [
    name
    for _, name, _ in pkgutil.iter_modules(fedleak.__path__, "fedleak.")
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_public_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)
