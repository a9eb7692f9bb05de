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


@pytest.fixture
def fake_pool(monkeypatch):
    """Run every multi-worker run's tasks in this process alone, so a test
    starts no process; returns the process count each run asked for."""
    runs = []
    real = phi23.parallel.run_tasks

    def in_process(tasks, walk, processes):
        runs.append(processes)
        return real(tasks, walk, 1)

    monkeypatch.setattr(phi23.parallel, "run_tasks", in_process)
    return runs
