"""Shared fixtures.

``fresh_tables`` gives a test empty circuit tables: the oracle's flip
table and view table, the outcome memo of ``deutsch`` and ``mod3`` and
the ``apply`` memos of the three circuit matrices (``_MID``, ``_FIN`` and ``H``).  Their
contents are put back afterwards, into the same dict objects, so a test
that injects a fault cannot leave entries behind for the tests that run
after it.
"""

import pytest

from qmodw import oracle, subroutines


def _circuit_tables():
    return [oracle._FLIPS, oracle._VIEWS, subroutines._OUTCOMES,
            subroutines._MID._memo, subroutines._FIN._memo,
            subroutines.H._memo]


@pytest.fixture
def fresh_tables():
    tables = _circuit_tables()
    saved = [dict(t) for t in tables]
    for t in tables:
        t.clear()
    yield
    for t, contents in zip(tables, saved):
        t.clear()
        t.update(contents)
