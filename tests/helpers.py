"""Independent reference implementations backing the test expectations.

The reference implementations share no code with the package: primality
is plain trial division, the sieve is a separate odd-only implementation,
and the pair oracles test the raw residual equation directly.
rolling_finiteness_bound is a finiteness scan that keeps no tail lists; it
uses the package's prime table, which it grows under PrimeTable.extend_tail's
condition.  linear_finiteness_bound steps through the table's tail lists
one entry at a time, the reference for the package's galloping scan.  The
state helpers (absorb_chain and the one after it) drive the package's own
state transition to build test inputs.  The populated-tree check at the end
walks roots other than the 2/3 equation's against a brute force over the
oracle's totient sieve.  deadline guards a test that could hang.
"""

from __future__ import annotations

import contextlib
import functools
import math
import signal
from bisect import bisect_left
from itertools import combinations
from typing import NamedTuple

import numpy as np

from phi23.arith import PrimeTable, build_prime_table
from phi23.equation import EquationState, Pruned, absorb_prime, root_state
from phi23.oracle import totient_sieve
from phi23.search import SearchConfig, _walk_task, max_k_for_limit

# Walks whose every state the walk-layer tests check, by test id: the
# paper's unbounded k = 1..6, the 1e12 and 1e14 searches, and a deep slice.
WALKS = {
    "k1-6": SearchConfig(k_min=1, k_max=6),
    "limit-1e12": SearchConfig(k_max=12, limit=10**12),
    "limit-1e14": SearchConfig(limit=10**14),
    "k17-1e28": SearchConfig(k_min=17, k_max=17, limit=10**28),
}


def simple_sieve(limit: int) -> list[int]:
    """Odd-only sieve of Eratosthenes, independent of the package's sieve."""
    if limit < 2:
        return []
    flags = bytearray([1]) * ((limit + 1) // 2)  # flags[i] marks 2*i + 1
    flags[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            start = (p * p) // 2
            flags[start::p] = bytearray(len(flags[start::p]))
    primes = [2]
    primes.extend(2 * i + 1 for i in range(len(flags)) if flags[i])
    if primes[-1] > limit:
        primes.pop()
    return primes


_sieve = functools.cache(simple_sieve)  # callers must not change the lists


def index_of(table: PrimeTable, p: int) -> int:
    """Index of the prime p in table.primes, found by bisection; raises
    ValueError if p is not there.  The walk looks no floor up this way: it
    carries each floor's index."""
    i = bisect_left(table.primes, p)
    if i == len(table.primes) or table.primes[i] != p:
        raise ValueError(f"{p} is not in the table")
    return i


def rolling_finiteness_bound(state: EquationState, table: PrimeTable, room: int | None = None) -> int:
    """finiteness_bound by a rolling scan that keeps nothing between calls:
    the table index of the bound.

    Finds the floor's index by value, multiplies out the tail of
    ``remaining`` primes after it and rolls both products one prime at a
    time: each step divides out the prime it leaves and multiplies in the
    one it reaches.  The table grows when the floor or a tail lies past its
    end, under the condition PrimeTable.extend_tail uses, so the two leave
    the same table behind.
    """
    primes = table.primes
    rem = state.remaining
    while state.floor > table.limit:
        table.grow()
    i = index_of(table, state.floor)
    while i + rem + 1 > len(primes):
        table.grow()
    tail = primes[i + 1 : i + 1 + rem]
    prod_m1, prod_p = math.prod(p - 1 for p in tail), math.prod(tail)
    alpha, beta, gamma = state.alpha, state.beta, state.gamma
    while True:
        if alpha * prod_m1 > beta * prod_p + gamma or (room is not None and prod_p > room):
            return i
        i += 1
        old = primes[i]
        if i + rem + 1 > len(primes):
            table.grow()
        new = primes[i + rem]
        prod_m1 = prod_m1 // (old - 1) * (new - 1)
        prod_p = prod_p // old * new


def linear_finiteness_bound(state: EquationState, i: int, table: PrimeTable, room: int | None = None) -> int:
    """finiteness_bound by a linear scan of the table's tail lists from entry
    i: the first entry m that fails either test is the bound.

    It asks PrimeTable.extend_tail for each entry past the end of the lists,
    so they reach exactly the bound it returns when that lies past them.
    """
    rem = state.remaining
    m1s, ps = table.tails[rem]
    m = i
    while True:
        while m >= len(ps):
            table.extend_tail(rem)
        if state.alpha * m1s[m] > state.beta * ps[m] + state.gamma:
            return m
        if room is not None and ps[m] > room:
            return m
        m += 1


def tight_limit_bound(state: EquationState, limit: int) -> int:
    """Largest prime p > state.floor whose run of ``state.remaining``
    consecutive primes has a product <= limit // prefix product, or
    state.floor when no prime qualifies.

    Tries every prime from the floor up on its own sieve, doubled until the
    first run that does not fit lies inside it.
    """
    room = limit // math.prod(state.prefix)
    rem = state.remaining
    size = 64
    while True:
        primes = _sieve(size)
        best = state.floor
        for i in range(len(primes) - rem + 1):
            if primes[i] <= state.floor:
                continue
            if math.prod(primes[i : i + rem]) > room:
                return best
            best = primes[i]
        size *= 2


def integer_root(x: int, r: int) -> int:
    """Largest t with t**r <= x, for x >= 0 and r >= 1.

    The walk once bounded the next prime by integer_root(room, remaining);
    the tests check that the consecutive-prime bound never exceeds it.

    A float estimate is returned when exact integer comparisons confirm
    it; otherwise integer Newton steps settle the answer, so it is always
    the true floor root however far the float is off.
    """
    if r < 1:
        raise ValueError(f"root order must be >= 1, got {r}")
    if x < 0:
        raise ValueError(f"integer_root requires x >= 0, got {x}")
    if r == 1 or x < 2:
        return x
    if r == 2:
        return math.isqrt(x)
    if x >> r == 0:
        # x < 2**r, so the root is 1.
        return 1
    try:
        t = max(int(x ** (1.0 / r)), 1)
    except OverflowError:
        t = 1 << (x.bit_length() // r + 1)
    if t**r <= x < (t + 1) ** r:
        return t
    # By AM-GM one Newton step from any t >= 1 lands at or above the floor
    # root, and from there each step falls until it reaches it.
    t = ((r - 1) * t + x // t ** (r - 1)) // r
    while (s := ((r - 1) * t + x // t ** (r - 1)) // r) < t:
        t = s
    return t


class EndgameParams(NamedTuple):
    """Two-prime endgame data: (delta*q - alpha)(delta*r - alpha) = target."""

    delta: int
    target: int
    residue: int  # admissible divisors satisfy f1 % delta == residue


def endgame_params(state: EquationState) -> EndgameParams:
    """Constants of the two-prime identity for this state, written out on
    their own: two_prime_solve derives the same ones inline, and the tests
    pin both to the same golden values.

    With two primes q < r left, alpha(q-1)(r-1) = beta*q*r + gamma is
    equivalent to (delta*q - alpha)(delta*r - alpha) = alpha*beta +
    gamma*delta where delta = alpha - beta.  Both left factors are
    congruent to -alpha modulo delta.
    """
    delta = state.alpha - state.beta
    target = state.alpha * state.beta + state.gamma * delta
    return EndgameParams(delta=delta, target=target, residue=(-state.alpha) % delta)


def trial_is_prime(n: int) -> bool:
    """6k+-1 trial division."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def naive_phi(n: int) -> int:
    """Euler totient by trial factorization."""
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def equation_holds(primes) -> bool:
    """Raw test of 3 * prod(p - 1) == 2 * prod(p) + 2."""
    n = 1
    tot = 1
    for p in primes:
        n *= p
        tot *= p - 1
    return 3 * tot == 2 * n + 2


def brute_force_k(k: int, primes: list[int]) -> set[tuple[int, ...]]:
    """All ascending k-tuples from ``primes`` satisfying the raw equation.

    No pruning at all beyond the ascending order, so this is the ground
    truth the pruned search must reproduce on small ranges.
    """
    return {combo for combo in combinations(primes, k) if equation_holds(combo)}


def pair_scan(
    alpha: int,
    beta: int,
    gamma: int,
    min_prime: int,
    bound: int,
    primes: list[int],
    prime_set: set[int],
) -> set[tuple[int, int]]:
    """All prime pairs min_prime < q < r <= bound solving the residual equation.

    Solves alpha*(q-1)*(r-1) = beta*q*r + gamma for r at each prime q and
    verifies the raw equation for every candidate, covering every pair in
    the box without enumerating the quadratic number of combinations.
    """
    delta = alpha - beta
    out = set()
    for q in primes:
        if q > bound:
            break
        if q <= min_prime:
            continue
        denom = delta * q - alpha
        if denom <= 0:
            continue
        num = alpha * (q - 1) + gamma
        if num <= denom * q:
            break  # r <= q from here on: r is strictly decreasing in q
        if num % denom:
            continue
        r = num // denom
        if r <= bound and r in prime_set:
            assert alpha * (q - 1) * (r - 1) == beta * q * r + gamma
            out.add((q, r))
    return out


def literal_pairs(
    alpha: int, beta: int, gamma: int, min_prime: int, primes: list[int]
) -> set[tuple[int, int]]:
    """Dumb double loop over prime pairs testing the raw equation."""
    eligible = [p for p in primes if p > min_prime]
    return {
        (q, r)
        for q, r in combinations(eligible, 2)
        if alpha * (q - 1) * (r - 1) == beta * q * r + gamma
    }


def absorb_chain(prefix: tuple[int, ...], extra: int = 2) -> EquationState | None:
    """State reached by absorbing ``prefix`` with ``extra`` primes left over.

    Returns None when any absorption prunes or any q is infeasible, q <=
    alpha // (alpha - beta), which the walk never offers and absorb_prime
    refuses.
    """
    state = root_state(len(prefix) + extra)
    for q in prefix:
        if q <= state.alpha // (state.alpha - state.beta):
            return None
        nxt = absorb_prime(state, q)
        if isinstance(nxt, Pruned):
            return None
        state = nxt
    return state


def reachable_endgame_states(
    primes: list[int], max_product: int, max_len: int = 3
) -> list[EquationState]:
    """Surviving remaining-2 states over ascending prefixes from ``primes``."""
    out = [root_state(2)]

    def rec(prefix: tuple[int, ...], product: int, start: int):
        for i in range(start, len(primes)):
            p = primes[i]
            if product * p > max_product:
                break
            state = absorb_chain(prefix + (p,))
            if state is not None:
                out.append(state)
                if len(prefix) + 1 < max_len:
                    rec(prefix + (p,), product * p, i + 1)

    rec((), 1, 0)
    return out


def populated_roots() -> list[tuple[int, int, int]]:
    """(alpha, beta, gamma) of every root with alpha <= 24, beta < alpha
    coprime to it, and gamma in {1, 2}: the premises of the walk's proofs."""
    return [
        (alpha, beta, gamma)
        for alpha in range(2, 25)
        for beta in range(1, alpha)
        if math.gcd(alpha, beta) == 1
        for gamma in (1, 2)
    ]


def walk_root(root: tuple[int, int, int], limit: int, table: PrimeTable) -> set[int]:
    """The n of every solution the walk finds below ``root`` with n <= limit,
    each checked against the root's own equation."""
    alpha, beta, gamma = root
    found = set()
    for k in range(1, max_k_for_limit(limit) + 1):
        task = (EquationState((), alpha, beta, gamma, k), 1)  # index 1: the root floor, 3
        for factors in _walk_task(task, limit, table)[0]:
            assert len(factors) == k and factors[0] >= 5, (root, factors)
            assert all(q < r for q, r in zip(factors, factors[1:])), (root, factors)
            assert all(map(trial_is_prime, factors)), (root, factors)
            n = math.prod(factors)
            assert alpha * math.prod(q - 1 for q in factors) == beta * n + gamma, (root, factors)
            assert n <= limit, (root, factors)
            found.add(n)
    return found


def check_populated_trees(bound: int) -> tuple[int, int]:
    """Walk every populated root to ``bound`` and check that the walk finds
    exactly the square-free n <= bound coprime to 6 with alpha*phi(n) =
    beta*n + gamma, and again with the limit set to each of those n, which
    catches a bound that prunes too much; returns the number of roots and
    of solutions.

    Run it as ``cd tests && python -c "from helpers import
    check_populated_trees; print(check_populated_trees(200_000_000))"``.
    The brute force holds the sieve's int64 totients, then about a third of
    them with their n.
    """
    phi = totient_sieve(bound)
    keep = np.ones(bound + 1, dtype=bool)
    keep[:2] = keep[::2] = keep[::3] = False
    for p in simple_sieve(math.isqrt(bound))[2:]:
        keep[:: p * p] = False
    n = np.flatnonzero(keep)
    del keep
    phi = phi[n]
    roots = populated_roots()
    table = build_prime_table(1 << 12)
    total = 0
    for root in roots:
        alpha, beta, gamma = root
        want = set(n[alpha * phi == beta * n + gamma].tolist())
        assert walk_root(root, bound, table) == want, root
        for limit in want:
            assert walk_root(root, limit, table) == {m for m in want if m <= limit}, (root, limit)
        total += len(want)
    return len(roots), total


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block is still running after
    ``seconds``, so a hung driver fails its test (and kills its children)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
