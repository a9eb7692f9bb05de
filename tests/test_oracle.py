"""Tests for the brute-force totient oracle."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import phi23
from helpers import naive_phi
from phi23.oracle import (
    SCAN_LIMIT_CAP,
    check_single,
    scan_solutions,
    totient_sieve,
)


@pytest.fixture(scope="module")
def phi_2m():
    return totient_sieve(2_000_000)


def test_totient_sieve_exhaustive_small():
    phi = totient_sieve(100_000)
    assert len(phi) == 100_001
    assert int(phi[0]) == 0
    assert int(phi[1]) == 1
    for n in range(1, 100_001):
        assert int(phi[n]) == naive_phi(n), n


def test_totient_sieve_random_spots(phi_2m):
    rng = random.Random(0xFEED)
    for _ in range(10_000):
        n = rng.randrange(1, 2_000_001)
        assert int(phi_2m[n]) == naive_phi(n), n


def test_totient_sieve_prime_and_multiplicative_spots(phi_2m, primes_100k):
    rng = random.Random(51)
    for _ in range(500):
        p = rng.choice(primes_100k)
        assert int(phi_2m[p]) == p - 1
    for _ in range(500):
        a = rng.randrange(2, 1_400)
        b = rng.randrange(2, 1_400)
        if math.gcd(a, b) == 1:
            assert int(phi_2m[a * b]) == int(phi_2m[a]) * int(phi_2m[b]), (a, b)


def test_totient_sieve_known_values(phi_2m):
    assert int(phi_2m[1_679_615]) == 1_119_744
    assert 3 * 1_119_744 == 2 * (1_679_615 + 1)
    assert int(phi_2m[1295]) == 864
    assert int(phi_2m[15_485_863 % 2_000_000]) == naive_phi(15_485_863 % 2_000_000)


def test_totient_sieve_validation():
    with pytest.raises(ValueError):
        totient_sieve(0)
    with pytest.raises(ValueError):
        totient_sieve(SCAN_LIMIT_CAP + 1)


def test_scan_solutions_known():
    assert scan_solutions(2_000_000) == [5, 35, 1295, 1_679_615]
    assert scan_solutions(1_679_614) == [5, 35, 1295]
    assert scan_solutions(1_000_000) == [5, 35, 1295]
    assert scan_solutions(100) == [5, 35]
    assert scan_solutions(5) == [5]
    assert scan_solutions(4) == []
    assert scan_solutions(1) == []


def test_scan_peaks_at_two_words_per_index():
    # the sieve's int64 phi plus one int64 array to compare it with in place
    limit = 1_000_000
    scan_solutions(100)  # numpy's one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        scan_solutions(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * limit, peak / limit


def test_scan_results_are_square_free_and_5_mod_6():
    for n in scan_solutions(2_000_000):
        res = check_single(n)
        assert res.square_free
        assert res.mod6 == 5


def test_check_single_solution_values():
    res = check_single(1_679_615)
    assert res.is_solution
    assert res.phi == 1_119_744
    assert res.factors == ((5, 1), (7, 1), (37, 1), (1297, 1))
    assert res.square_free
    assert res.mod6 == 5
    assert not res.relevance  # (4n+1)/3 = 2239487 = 23 * 97369

    res35 = check_single(35)
    assert res35.is_solution
    assert res35.phi == 24
    assert res35.relevance  # (4n+1)/3 = 47

    res5 = check_single(5)
    assert res5.is_solution and res5.relevance and res5.phi == 4

    res1295 = check_single(1295)
    assert res1295.is_solution and not res1295.relevance


def test_check_single_non_solutions():
    res = check_single(25)
    assert not res.is_solution
    assert not res.square_free
    assert res.phi == 20
    assert res.factors == ((5, 2),)
    assert res.mod6 == 1

    res36 = check_single(36)
    assert not res36.is_solution
    assert res36.phi == 12
    assert res36.mod6 == 0

    res1 = check_single(1)
    assert not res1.is_solution
    assert res1.phi == 1
    assert res1.factors == ()
    assert res1.square_free

    with pytest.raises(ValueError):
        check_single(0)


def test_check_agrees_with_scan():
    hits = set(scan_solutions(10_000))
    for n in range(1, 2_001):
        assert check_single(n).is_solution == (n in hits), n
    for n in sorted(hits):
        assert check_single(n).is_solution


def test_scan_cap_is_fixed():
    assert SCAN_LIMIT_CAP == 200_000_000


def test_package_import_leaves_numpy_unloaded():
    # only the oracle's sieve and scan use numpy, and they import it themselves
    src = Path(phi23.__file__).resolve().parent.parent
    code = "import sys, phi23, phi23.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_package_reexports_each_module_public_names():
    # phi23 lists no name itself: it re-exports each module's __all__
    modules = (phi23.arith, phi23.equation, phi23.oracle, phi23.search)
    assert phi23.__all__ == [name for m in modules for name in m.__all__] + ["__version__"]
    assert len(set(phi23.__all__)) == len(phi23.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(phi23, name) is getattr(m, name), (m.__name__, name)
    assert phi23.SieveCapError is phi23.arith.SieveCapError
    assert phi23.SCAN_LIMIT_CAP is SCAN_LIMIT_CAP


def _pool_modules_after(run: str) -> str:
    """The top-level pool packages loaded after importing phi23 and ``run``."""
    src = Path(phi23.__file__).resolve().parent.parent
    code = (
        "import os, sys, phi23, phi23.cli\n"
        "from phi23 import SearchConfig, solve\n"
        f"{run}\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'concurrent', 'multiprocessing'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_serial_run_leaves_the_pool_machinery_unloaded():
    # the package never loads the standard process pool
    assert _pool_modules_after("assert len(solve(SearchConfig(limit=10**9))) == 4") == "[]"


def test_two_worker_run_leaves_the_pool_machinery_unloaded():
    # a multi-worker run forks its workers itself
    run = "os.cpu_count = lambda: 2\nassert len(solve(SearchConfig(limit=10**9, threads=2))) == 4"
    assert _pool_modules_after(run) == "[]"
