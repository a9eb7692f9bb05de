"""Integer arithmetic substrate: prime tables, primality, factoring.

Everything here works on plain Python integers, so intermediate products
never overflow regardless of operand size.  Primality verdicts are proven
below about 3.3e24 (Miller-Rabin over fixed witness sets, covering the
64-bit range and beyond) and probable above (Miller-Rabin plus a strong
Lucas test); factoring is trial division followed by Brent's variant of
Pollard rho with deterministic, seeded restarts.  factorize trusts those
verdicts: a cofactor wrongly called prime would hide its divisors.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress
from math import gcd, isqrt

__all__ = [
    "PrimeTable",
    "Factorization",
    "FactoringError",
    "SieveCapError",
    "build_prime_table",
    "is_prime",
    "factorize",
]

# Hard ceiling for a sieve's limit; the sieve holds one byte per odd
# candidate, so it allocates at most half this many bytes.
_SIEVE_CAP = 1 << 32


class FactoringError(Exception):
    """Raised when factorize(n) gave up after exhausting its retry budget.

    ``n`` is the number factorize was given, not the cofactor it got stuck
    on.  The result is never silently truncated: a search stops with no
    partial output and the CLI exits 3.  ``branch`` is the search prefix
    whose endgame target n could not be factored (empty outside a search).
    """

    def __init__(self, n: int, branch: tuple[int, ...] = ()):
        self.n = n
        self.branch = branch
        super().__init__(n, branch)  # unpickling calls FactoringError(*args)

    def __str__(self) -> str:
        where = f" at branch {list(self.branch)}" if self.branch else ""
        return f"factoring gave up on {self.n}{where}"


class SieveCapError(MemoryError):
    """Raised when a prime table up to ``limit`` cannot be had below _SIEVE_CAP.

    ``grown`` is set when the table would reach ``limit`` only by growing
    fourfold to ``grown``, past the cap.  A walk that raises it is out of
    this solver's reach: the CLI exits 2 and prints the message.
    """

    def __init__(self, limit: int, grown: int | None = None):
        self.limit = limit
        self.grown = grown
        super().__init__(limit, grown)  # unpickling calls SieveCapError(*args)

    def __str__(self) -> str:
        grows = "" if self.grown is None else f", but the table grows fourfold, to {self.grown}"
        return f"needs a prime table up to {self.limit}{grows}; the sieve is capped below {_SIEVE_CAP}"


@dataclass
class PrimeTable:
    """Ascending primes up to ``limit``, stored compactly; grows on demand.

    ``grow`` extends ``primes`` in place, so a caller holding the array sees
    the new primes.  ``tails`` holds the finiteness scan's tail products:
    for a count r, two lists whose entry m is prod(p - 1) and prod(p) over
    the r primes after primes[m].  ``extend_tail`` alone makes their
    entries.  Growth only appends primes, so an entry never goes stale.
    """

    primes: array
    limit: int
    tails: defaultdict[int, tuple[list[int], list[int]]] = field(
        default_factory=lambda: defaultdict(lambda: ([], [])), repr=False, compare=False
    )

    def grow(self) -> None:
        """Sieve to four times the limit and append the new primes.

        Callers need a prime past the limit: when four times it reaches the
        sieve cap, this raises before sieving, naming limit + 1 and the
        fourfold limit.
        """
        if 4 * self.limit >= _SIEVE_CAP:
            raise SieveCapError(self.limit + 1, 4 * self.limit)
        bigger = build_prime_table(4 * self.limit)
        self.primes.extend(bigger.primes[len(self.primes) :])
        self.limit = bigger.limit

    def extend_tail(self, r: int) -> None:
        """Append the next entry, m, of the tail lists for r primes left.

        The first entry is multiplied out; each later one rolls the last,
        dividing primes[m] out of its products and multiplying primes[m + r]
        in.  The table grows when the entry needs primes past its end.  The
        finiteness scan calls this when it runs past the end of the lists,
        so they reach exactly as far as the furthest scan of the run, and
        the bound never depends on the table size.
        """
        primes = self.primes  # grow() extends this very array
        m1s, ps = self.tails[r]
        m = len(ps)
        while m + r + 1 > len(primes):
            self.grow()
        if m:
            old, new = primes[m], primes[m + r]
            m1s.append(m1s[-1] // (old - 1) * (new - 1))
            ps.append(ps[-1] // old * new)
        else:
            tail = primes[1 : 1 + r]
            m1s.append(math.prod(p - 1 for p in tail))
            ps.append(math.prod(tail))


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to ``limit`` inclusive, over the odd numbers.

    limit must be >= 5.  Memory is one byte per odd candidate plus eight
    bytes per prime found; a limit of _SIEVE_CAP or more is refused outright
    rather than truncated.
    """
    if limit < 5:
        raise ValueError(f"prime table limit must be >= 5, got {limit}")
    if limit >= _SIEVE_CAP:
        raise SieveCapError(limit)
    # sieve[j] stands for 2*j + 1; an odd multiple of p steps j by p
    size = (limit + 1) // 2
    sieve = bytearray([1]) * size
    sieve[0] = 0
    for j in range(1, (isqrt(limit) + 1) // 2):
        if sieve[j]:
            p = 2 * j + 1
            start = p * p // 2
            sieve[start::p] = bytes((size - 1 - start) // p + 1)
    primes = array("Q", [2])
    primes.extend(compress(range(1, limit + 1, 2), sieve))
    return PrimeTable(primes=primes, limit=limit)


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (bound, witnesses): deterministic Miller-Rabin witness sets, each proven
# complete for all n below its bound.  The last two rows cover well past
# 2**64; the final row reaches about 3.3e24.
_MR_LADDER = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


def _miller_rabin(n: int, witnesses) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    # n odd and positive
    a %= n
    result = 1
    while a:
        while a & 1 == 0:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    # Strong Lucas test with Selfridge parameters; n odd, not a perfect
    # square, with no tiny prime factor.
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == 0:
            return False
        if j == -1:
            break
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    # Binary ladder for U_d, V_d mod n with P = 1.
    U, V, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u2 = (U + V) % n
            v2 = (V + D * U) % n
            if u2 & 1:
                u2 += n
            if v2 & 1:
                v2 += n
            U, V = u2 >> 1, v2 >> 1
            qk = qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * qk) % n
        if V == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Primality test: proven below 3.3e24, probable above.

    Proven exact for all n below 3.3e24 (about 2**81.4) via the
    Miller-Rabin witness ladder, which covers the full 64-bit range.  The
    unbounded search to k = 6 and the search to 1e14 test no value past
    42 bits, and the search to 1e21 none past 54 bits, but factoring a
    larger endgame target can test a cofactor past the ladder: forcing
    strategy="factor" on the sampled k = 7 endgames tests an 86-bit one.
    Beyond the ladder the verdict is probable: the 13-prime witness set is
    combined with a strong Lucas test, and no composite passing that
    combination is known.  factorize's _split stops at a cofactor this
    calls prime, so a wrong "prime" there would hide its divisors.
    """
    if n < 2:
        return False
    for p in _TINY_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    for bound, witnesses in _MR_LADDER:
        if n < bound:
            return _miller_rabin(n, witnesses)
    if not _miller_rabin(n, _MR_LADDER[-1][1]):
        return False
    r = isqrt(n)
    if r * r == n:
        return False
    return _strong_lucas(n)


# ---------------------------------------------------------------------------
# Factoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """Prime factorization value = prod(p**e), factors ascending in p."""

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def is_square_free(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def phi(self) -> int:
        """Euler totient computed from the factorization."""
        out = 1
        for p, e in self.factors:
            out *= p ** (e - 1) * (p - 1)
        return out

    def divisors(self) -> list[int]:
        """All positive divisors, ascending."""
        divs = [1]
        for p, e in self.factors:
            pk = 1
            step = []
            for _ in range(e):
                pk *= p
                step.extend(d * pk for d in divs)
            divs.extend(step)
        divs.sort()
        return divs


_TRIAL_LIMIT = 1_000
_TRIAL_PRIMES = tuple(build_prime_table(_TRIAL_LIMIT).primes)
# Brent-rho restarts per composite, and the iteration budget of each one.
_RHO_ROUNDS = 8
_RHO_MAX_ITERS = 1 << 21


def _rho_brent(n: int, attempt: int) -> int:
    """One Brent-cycle attempt at a nontrivial factor of composite odd n.

    Seeded deterministically from (n, attempt) so runs are reproducible.
    Returns a nontrivial divisor, or 0 when this attempt failed.
    """
    rng = random.Random(n * 0x9E3779B1 + attempt)
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    x = ys = y
    iters = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += m
        r <<= 1
        iters += r
        if iters > _RHO_MAX_ITERS:
            return 0
    if g == n:
        # Backtrack one step at a time from the last checkpoint.
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
    return g if g != n else 0


def _split(m: int, out: dict[int, int]) -> bool:
    """Add the prime factors of m to out; False when rho gave up on a part.

    Needs m > 1, which factorize (m >= 10**6) and rho (1 < d < m) keep.
    """
    if is_prime(m):
        out[m] = out.get(m, 0) + 1
        return True
    for attempt in range(_RHO_ROUNDS):
        d = _rho_brent(m, attempt)
        if d:
            return _split(d, out) and _split(m // d, out)
    return False


def factorize(n: int) -> Factorization:
    """Full prime factorization of n >= 1.

    Strategy: trial division by primes up to 1000, then a primality check,
    then recursive Brent-rho splitting with ``_RHO_ROUNDS`` deterministic
    restarts per composite.  Raises FactoringError(n), naming n itself,
    if the budget runs out on any cofactor; the restarts are seeded
    deterministically, so a repeat call fails the same way.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: dict[int, int] = {}
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        # m has no factor <= min(1000, sqrt(m)); _split tests a larger m.
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT:
            out[m] = out.get(m, 0) + 1
        elif not _split(m, out):
            raise FactoringError(n)
    return Factorization(value=n, factors=tuple(sorted(out.items())))
