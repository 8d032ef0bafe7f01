"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def faulty_st018(monkeypatch):
    """st018 registered with a definition that raises at n = 5; yields the error's message.

    The memo of generating functions is cleared around the test, so that no
    value computed before it hides the fault and none computed under it
    outlives it.
    """
    from permsieve import sieving
    from permsieve.errors import PermsieveError
    from permsieve.statistics import REGISTRY, StatDescriptor, mahonian_gf

    message = "an odd count at n=5"

    def gf(n):
        if n == 5:
            raise PermsieveError(message)
        return mahonian_gf(n)

    st018 = REGISTRY["st018"]
    monkeypatch.setitem(REGISTRY, "st018", StatDescriptor(st018.key, st018.name, st018.evaluator, gf=gf))
    sieving._generating_function_cached.cache_clear()
    yield message
    sieving._generating_function_cached.cache_clear()
