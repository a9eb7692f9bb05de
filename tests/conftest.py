"""Shared fixtures for the test suite."""

import os

import pytest

import phi23.parallel
from helpers import simple_sieve


@pytest.fixture(scope="session")
def primes_100k() -> list[int]:
    return simple_sieve(100_000)


@pytest.fixture(scope="session")
def prime_set_100k(primes_100k) -> set[int]:
    return set(primes_100k)


@pytest.fixture
def only_walker(monkeypatch):
    """Call with "parent" or "children": in the multi-worker runs that
    follow, the other side claims no task (the parent is this process)."""
    parent = os.getpid()
    real = phi23.parallel._walk_tasks

    def restrict(who):
        def walk(*args):
            if (os.getpid() == parent) == (who == "parent"):
                return real(*args)
            return []

        monkeypatch.setattr(phi23.parallel, "_walk_tasks", walk)

    return restrict
