"""Fixtures shared by the test modules."""

from importlib import import_module

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every process pool the scan starts, in order."""
    scan_module = import_module("permsieve.scan")  # the package binds ``scan`` to the function
    sizes = []

    class Spy(scan_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            sizes.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scan_module, "ProcessPoolExecutor", Spy)
    return sizes
