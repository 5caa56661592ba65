import importlib
import pkgutil

import pytest

import smoothol

MODULES = ["smoothol"] + [f"smoothol.{m.name}" for m in pkgutil.iter_modules(smoothol.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_is_bound(name):
    """A name deleted from a module while its ``__all__`` entry stays fails here,
    not in a user's ``from smoothol... import *``."""
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
