"""Shared fixtures.

``fresh_tables`` gives a test empty circuit tables: every
``functools.lru_cache`` memo of the ``qmodw`` modules, at module level or
on a class (``SquareMatrix.apply``), found by its ``cache_clear`` so a
memo added later is cleared too.  They are cleared again afterwards, so a
test that injects a fault cannot leave entries behind for the tests that
run after it.  The fixture yields the memoised functions.
"""

import importlib
import inspect
import pkgutil

import pytest

import qmodw


def _memoised_functions():
    """Every function with a ``cache_clear`` in a qmodw module, once each."""
    found = {}
    for info in pkgutil.iter_modules(qmodw.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"qmodw.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for f in members:
                if hasattr(f, "cache_clear"):
                    found[id(f)] = f
    return list(found.values())


def _clear(functions):
    for f in functions:
        f.cache_clear()


@pytest.fixture
def fresh_tables():
    # Found once, so a memo a test monkeypatches away is still cleared.
    functions = _memoised_functions()
    _clear(functions)
    yield functions
    _clear(functions)
