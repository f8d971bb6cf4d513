"""Shared fixtures.

``fresh_tables`` gives a test empty circuit tables: every
``functools.lru_cache`` memo of the ``qmodw`` modules (found by its
``cache_clear``, so a memo added later is cleared too) and the ``apply``
memos of the three circuit matrices (``_MID``, ``_FIN`` and ``H``).  They
are cleared again afterwards, so a test that injects a fault cannot leave
entries behind for the tests that run after it.  The fixture yields the
memoised functions.
"""

import importlib
import pkgutil

import pytest

import qmodw
from qmodw import subroutines


def _memoised_functions():
    """Every function with a ``cache_clear`` in a qmodw module, once each."""
    found = {}
    for info in pkgutil.iter_modules(qmodw.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"qmodw.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                found[id(obj)] = obj
    return list(found.values())


def _clear(functions, matrices):
    for f in functions:
        f.cache_clear()
    for m in matrices:
        m._memo.clear()


@pytest.fixture
def fresh_tables():
    # Found once, so a memo a test monkeypatches away is still cleared.
    functions = _memoised_functions()
    matrices = [subroutines._MID, subroutines._FIN, subroutines.H]
    _clear(functions, matrices)
    yield functions
    _clear(functions, matrices)
