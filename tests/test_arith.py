"""Tests for the integer arithmetic layer."""

import pickle
import random
from math import isqrt

import pytest

import phi23.arith
from helpers import index_of, integer_root, simple_sieve, trial_is_prime
from phi23.arith import (
    FactoringError,
    SieveCapError,
    _strong_lucas,
    build_prime_table,
    factorize,
    is_prime,
)


def test_prime_table_small_limits():
    table = build_prime_table(10)
    assert list(table.primes) == [2, 3, 5, 7]
    assert len(table.primes) == 4
    assert table.limit == 10
    assert list(build_prime_table(5).primes) == [2, 3, 5]
    with pytest.raises(ValueError):
        build_prime_table(4)
    # the sieve holds odd candidates only: odd and even limits, and limits
    # at p*p - 1, p*p and p*p + 1, all agree with the independent sieve
    for limit in range(5, 2_001):
        table = build_prime_table(limit)
        assert table.limit == limit
        assert list(table.primes) == simple_sieve(limit), limit
    # and so does every table grown from the smallest one
    table = build_prime_table(5)
    for limit in (20, 80, 320, 1_280, 5_120):
        table.grow()
        assert table.limit == limit
        assert list(table.primes) == simple_sieve(limit)


def test_prime_table_millionth_prime():
    # expected values cross-checked against an independent odd-only sieve
    table = build_prime_table(20_000_000)
    ref = simple_sieve(20_000_000)
    assert len(table.primes) == len(ref) == 1_270_607
    assert table.primes[999_999] == ref[999_999] == 15_485_863
    assert table.primes[0] == 2
    assert table.primes[-1] == ref[-1] == 19_999_999


def test_prime_table_matches_trial_division():
    table = build_prime_table(10_000)
    want = [n for n in range(2, 10_001) if trial_is_prime(n)]
    assert list(table.primes) == want


def test_prime_table_index_of():
    # the tests' by-value lookup; the walk carries indices instead
    table = build_prime_table(100)
    assert index_of(table, 2) == 0
    assert index_of(table, 5) == 2
    assert index_of(table, 97) == 24
    with pytest.raises(ValueError):
        index_of(table, 9)
    with pytest.raises(ValueError):
        index_of(table, 101)


def test_prime_table_cap_names_no_more_than_the_need(monkeypatch):
    monkeypatch.setattr(phi23.arith, "_SIEVE_CAP", 1024)
    table = build_prime_table(64)
    table.grow()
    assert table.limit == 256
    # growing 256 fourfold would reach the cap, so the table stays as it is
    # and the error names 257, the first prime past it, and the growth to 1024
    with pytest.raises(SieveCapError) as info:
        table.grow()
    assert (info.value.limit, info.value.grown, table.limit) == (257, 1024, 256)
    assert list(table.primes) == simple_sieve(256)


def test_is_prime_matches_sieve_exhaustively():
    limit = 200_000
    flags = set(simple_sieve(limit))
    for n in range(limit + 1):
        assert is_prime(n) == (n in flags), n


def test_is_prime_edge_cases():
    assert not is_prime(-7)
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(4)
    assert is_prime(37)
    assert is_prime(1297)
    assert not is_prime(49)
    assert not is_prime(133)


def test_is_prime_large_values():
    m61 = (1 << 61) - 1
    assert is_prime(m61)
    m89 = (1 << 89) - 1
    assert is_prime(m89)
    m97 = (1 << 97) - 1
    assert m97 % 11447 == 0  # known factor, so composite
    assert not is_prime(m97)
    # perfect square beyond 64 bits exercises the square guard
    assert not is_prime(m61 * m61)
    assert not is_prime(m61 * m89)


def test_strong_lucas_on_primes_and_known_pseudoprime():
    for n in simple_sieve(20_000):
        if n > 11:
            assert _strong_lucas(n), n
    # 5459 = 53 * 103 is a strong Lucas pseudoprime; the Miller-Rabin
    # ladder inside is_prime must still reject it
    assert _strong_lucas(5459)
    assert not trial_is_prime(5459)
    assert not is_prime(5459)


def test_factorize_known_values():
    assert factorize(1).factors == ()
    assert dict(factorize(2).factors) == {2: 1}
    assert dict(factorize(720).factors) == {2: 4, 3: 2, 5: 1}
    assert dict(factorize(4687).factors) == {43: 1, 109: 1}
    assert dict(factorize(1261).factors) == {13: 1, 97: 1}
    assert dict(factorize(15_485_863).factors) == {15_485_863: 1}
    assert dict(factorize(1727).factors) == {11: 1, 157: 1}
    assert dict(factorize(2_239_487).factors) == {23: 1, 97_369: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_large_semiprime():
    p, q = 1_000_003, 10_000_019
    assert trial_is_prime(p) and trial_is_prime(q)
    f = factorize(p * q)
    assert dict(f.factors) == {p: 1, q: 1}
    assert f.value == p * q


def test_factorize_roundtrip_random():
    rng = random.Random(0xC0FFEE)
    for _ in range(20_000):
        n = rng.randrange(1, 1 << 60)
        f = factorize(n)
        back = 1
        last = 1
        for p, e in f.factors:
            assert p > last, "factors must be strictly ascending"
            assert e >= 1
            assert is_prime(p)
            back *= p**e
            last = p
        assert back == n


def test_factorize_gives_up_without_rho(monkeypatch):
    # the error names the n factorize was given, not the cofactor left after
    # trial division (10000049000057 for the second n)
    monkeypatch.setattr(phi23.arith, "_RHO_ROUNDS", 0)
    for n in (1_000_003 * 10_000_019, 6 * 1_000_003 * 10_000_019):
        with pytest.raises(FactoringError) as info:
            factorize(n)
        assert info.value.n == n
        assert info.value.branch == ()


def test_factorize_tests_each_cofactor_once(monkeypatch):
    # after trial division, each cofactor past 10**6 is tested for primality
    # once: the composite left over, then the two primes rho splits it into
    seen = []
    real = phi23.arith.is_prime

    def spy(n):
        seen.append(n)
        return real(n)

    monkeypatch.setattr(phi23.arith, "is_prime", spy)
    n = 1_000_003 * 10_000_019
    assert factorize(6 * n).factors == ((2, 1), (3, 1), (1_000_003, 1), (10_000_019, 1))
    assert sorted(seen) == [1_000_003, 10_000_019, n]
    seen.clear()
    # a prime cofactor past 10**6 is tested once, a smaller one not at all
    assert factorize(6 * 10_000_019).factors == ((2, 1), (3, 1), (10_000_019, 1))
    assert factorize(6 * 1_009).factors == ((2, 1), (3, 1), (1_009, 1))
    assert seen == [10_000_019]


@pytest.mark.parametrize(
    "error, text",
    [
        (FactoringError(15), "factoring gave up on 15"),
        (FactoringError(15, (5, 7)), "factoring gave up on 15 at branch [5, 7]"),
        (SieveCapError(1 << 33), f"needs a prime table up to {1 << 33}; the sieve is capped below {1 << 32}"),
        (
            SieveCapError((1 << 30) + 1, 1 << 32),
            f"needs a prime table up to {(1 << 30) + 1}, but the table grows fourfold, to {1 << 32}; "
            f"the sieve is capped below {1 << 32}",
        ),
    ],
    ids=["factoring", "factoring-at-branch", "sieve-cap", "sieve-cap-growth"],
)
def test_errors_survive_pickle(error, text):
    # a forked search worker sends the exception that stopped it by pickle
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error) == text
    assert vars(back) == vars(error)


def test_factorization_helpers():
    f = factorize(1261)
    assert f.divisors() == [1, 13, 97, 1261]
    assert f.phi() == 12 * 96
    assert f.is_square_free
    assert not factorize(720).is_square_free
    assert factorize(7).phi() == 6
    assert factorize(1).phi() == 1
    assert factorize(1).divisors() == [1]
    assert factorize(36).divisors() == [1, 2, 3, 4, 6, 9, 12, 18, 36]


# integer_root is a test helper now (the limit bound the walk once used);
# its tests stay with the rest of the integer arithmetic.


def test_integer_root_pinned_values():
    x = 10**14 // 35
    assert integer_root(x, 5) == 309
    assert 309**5 <= x < 310**5
    assert integer_root(8, 3) == 2
    assert integer_root(7, 3) == 1
    assert integer_root(1, 9) == 1
    assert integer_root(0, 4) == 0
    assert integer_root(10**30, 1) == 10**30
    assert integer_root((10**12 + 39) ** 2, 2) == 10**12 + 39
    assert integer_root((10**12 + 39) ** 2 - 1, 2) == 10**12 + 38


def test_integer_root_rejects_bad_input():
    with pytest.raises(ValueError):
        integer_root(5, 0)
    with pytest.raises(ValueError):
        integer_root(-1, 2)


def test_integer_root_random():
    rng = random.Random(31337)
    for _ in range(100_000):
        r = rng.randrange(1, 13)
        x = rng.randrange(0, 1 << 127)
        t = integer_root(x, r)
        assert t**r <= x, (x, r, t)
        assert (t + 1) ** r > x, (x, r, t)


def test_integer_root_large_values():
    # a float seed can be off by many units here; every supported limit is
    # below 10**211, and its roots of order 3..24 must come out exact
    rng = random.Random(2024)
    for _ in range(20_000):
        r = rng.randrange(3, 25)
        x = rng.randrange(0, 10 ** rng.randrange(1, 212))
        t = integer_root(x, r)
        assert t**r <= x < (t + 1) ** r, (x, r, t)
    t = integer_root(10**80, 3)
    assert t**3 <= 10**80 < (t + 1) ** 3
    assert t == 464_158_883_361_277_889_241_007_635


def test_integer_root_perfect_powers():
    rng = random.Random(777)
    for _ in range(2_000):
        r = rng.randrange(2, 9)
        b = rng.randrange(1, 1 << 20)
        assert integer_root(b**r, r) == b
        assert integer_root(b**r + 1, r) == b
        if b > 1:
            assert integer_root(b**r - 1, r) == b - 1


def test_sieve_cross_check_medium(primes_100k):
    table = build_prime_table(100_000)
    assert list(table.primes) == primes_100k
