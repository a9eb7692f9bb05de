"""Solver and oracle for the totient equation phi(n) = (2/3)(n+1)."""

from .arith import (
    FactoringError,
    Factorization,
    PrimeTable,
    build_prime_table,
    factorize,
    is_prime,
)
from .equation import (
    EquationState,
    Pruned,
    absorb_prime,
    finiteness_bound,
    limit_bound,
    one_prime_solve,
    root_state,
    two_prime_args,
    two_prime_solve,
)
from .oracle import CheckResult, check_single, scan_solutions, totient_sieve
from .search import (
    SearchConfig,
    SearchCounters,
    Solution,
    max_k_for_limit,
    search_exact_k,
    solve,
    steinerberger_relevance,
)

__version__ = "0.1.0"

__all__ = [
    "FactoringError",
    "Factorization",
    "PrimeTable",
    "build_prime_table",
    "factorize",
    "is_prime",
    "EquationState",
    "Pruned",
    "absorb_prime",
    "finiteness_bound",
    "limit_bound",
    "one_prime_solve",
    "root_state",
    "two_prime_args",
    "two_prime_solve",
    "CheckResult",
    "check_single",
    "scan_solutions",
    "totient_sieve",
    "SearchConfig",
    "SearchCounters",
    "Solution",
    "max_k_for_limit",
    "search_exact_k",
    "solve",
    "steinerberger_relevance",
    "__version__",
]
