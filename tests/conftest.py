"""Fixtures shared by the test modules."""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="session")
def gen():
    """`bench/gen.py`, the seeded surface generator, imported read-only.

    No bytecode is written under `bench/`, and the directory leaves the path
    again once the module is loaded.
    """
    sys.path.insert(0, BENCH)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("gen")
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = dont_write
