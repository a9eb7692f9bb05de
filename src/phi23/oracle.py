"""Brute-force cross-check path: totient sieve, scan, single-value verdicts.

Deliberately shares no search logic with the solver.  The sieve recomputes
Euler's totient for every index from scratch (vectorized), the scan tests
3*phi(n) == 2*(n+1) directly, and check_single re-derives everything for
one value from its factorization.  numpy is imported by the two functions
that use it, so importing the package (and the solver) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import TYPE_CHECKING

from .arith import factorize, is_prime

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CheckResult",
    "SCAN_LIMIT_CAP",
    "totient_sieve",
    "scan_solutions",
    "check_single",
]

# The scan peaks at two int64 words per index; anything bigger belongs to the solver path.
SCAN_LIMIT_CAP = 200_000_000


def totient_sieve(limit: int) -> np.ndarray:
    """phi[i] = Euler totient of i, for 0 <= i <= limit."""
    import numpy as np

    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    if limit > SCAN_LIMIT_CAP:
        raise ValueError(
            f"scan limit capped at {SCAN_LIMIT_CAP} (two words per index); "
            "use 'search --limit' beyond that"
        )
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in np.flatnonzero(~composite):
        sl = phi[p::p]
        sl -= sl // p
    return phi


def scan_solutions(limit: int) -> list[int]:
    """Every n <= limit with phi(n) = (2/3)(n+1), by direct tabulation."""
    import numpy as np

    phi = totient_sieve(limit)
    phi *= 3
    phi -= np.arange(2, 2 * limit + 3, 2)
    return np.flatnonzero(phi == 0).tolist()


@dataclass(frozen=True)
class CheckResult:
    """Verdict for a single value, derived from its factorization."""

    n: int
    phi: int
    is_solution: bool
    factors: tuple[tuple[int, int], ...]
    square_free: bool
    mod6: int
    relevance: bool


def check_single(n: int) -> CheckResult:
    """Factor n, recompute phi, and test the equation exactly."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    fact = factorize(n)
    phi = fact.phi()
    m = 4 * n + 1
    return CheckResult(
        n=n,
        phi=phi,
        is_solution=3 * phi == 2 * (n + 1),
        factors=fact.factors,
        square_free=fact.is_square_free,
        mod6=n % 6,
        relevance=m % 3 == 0 and is_prime(m // 3),
    )
