"""Fixtures shared by the test modules."""

from dataclasses import replace
from importlib import import_module

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every process pool the scan starts, in order.

    The scan imports ``ProcessPoolExecutor`` from ``concurrent.futures`` when it
    starts a pool, so the spy replaces it there.
    """
    futures = import_module("concurrent.futures")
    sizes = []

    class Spy(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            sizes.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Spy)
    return sizes


@pytest.fixture
def faulty_st018(monkeypatch):
    """st018 registered with a definition that raises at n = 5; yields the error's message.

    Fork carries the patched registry into pool workers.  The memo of
    generating functions is cleared around the test, so that no value
    computed before it hides the fault and none computed under it outlives it.
    """
    from permsieve import sieving
    from permsieve.errors import ParityViolation
    from permsieve.statistics import REGISTRY, mahonian_gf

    message = "an odd count at n=5"

    def gf(n):
        if n == 5:
            raise ParityViolation(message)
        return mahonian_gf(n)

    monkeypatch.setitem(REGISTRY, "st018", replace(REGISTRY["st018"], gf=gf))
    sieving._generating_function_cached.cache_clear()
    yield message
    sieving._generating_function_cached.cache_clear()
