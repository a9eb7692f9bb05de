"""Exhaustive pruned search for solutions of 3*prod(q-1) = 2*prod(q) + 2.

Solutions n = q1*...*qk (distinct primes >= 5) are found by depth-first
expansion of residual-equation states.  Internal nodes enumerate the next
prime up to the tighter of the finiteness bound and the limit bound; leaf
work is handed to the closed-form endgames.  The last internal level is
fused with the endgames below it: a node with three primes left tests each
next prime on its coefficients and hands the child's coefficients straight
to the two-prime endgame, without building the child state.  Every emitted
solution is re-verified against the original equation, independent of the
search path that produced it.

Each run builds one PrimeTable, which keeps the tail products of the bound
scans and grows when they need primes past its end.  The walk takes every
next prime at a known index of that table and hands each node the index of
its floor along with its state: the node's bound scan opens at that index
and returns the index of the bound, so its candidates are a range of table
indices and it looks nothing up by value.  A task is such a (state, floor
index) pair, and ``_walk_task`` is the one walk of a subtree task on any
worker count; a serial run walks each k's whole tree as one task.  When
more than one worker may start, ``solve`` expands every k's tree
breadth-first into independent subtree tasks, stopping at nodes with three
primes left so that each tree level takes the same path on any worker
count, and hands the tasks and the walk to ``phi23.parallel.run_tasks``
(see there for how the workers share them).  Results come back in task
order and are sorted, so output does not depend on the worker count.
"""

from __future__ import annotations

import functools
import os
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, fields
from itertools import accumulate
from math import gcd, isqrt
from operator import mul
from typing import Callable, Iterable

from .arith import FactoringError, PrimeTable, build_prime_table, is_prime
from .equation import (
    EquationState,
    Pruned,
    absorb_prime,
    finiteness_bound,
    limit_bound,
    one_prime_solve,
    residue_closes,
    root_state,
    two_prime_args,
    two_prime_solve,
)

__all__ = [
    "SearchConfig",
    "SearchCounters",
    "Solution",
    "max_k_for_limit",
    "search_exact_k",
    "solve",
    "steinerberger_relevance",
]


# Unbounded searches beyond this many prime factors are refused.  k = 7 does
# finish but has no opt-in yet: about 98% of it is the node [5, 7, 37, 1297],
# whose 136,241 endgames took 253.6 s when walked one by one on one core of a
# 2-core VM (Python 3.11.7, at commit 1790909).  k = 8's finiteness bounds
# need primes past 2**30: a walk-only run stopped when the table, grown
# fourfold from 2**12 to 2**30, could not grow again below the 2**32 sieve cap:
# PrimeTable.grow says the walk "needs a prime table up to 1073741825, but the
# table grows fourfold, to 4294967296" (2**30 + 1 and 2**32).  Whether k = 8
# stays below the cap is unmeasured.
MAX_UNBOUNDED_K = 6

# Holds every prime the unbounded k = 1..6 walk and the limited walks up to
# 1e16 and to k = 22 at 1e38 need; grow() quadruples it past that.
_INITIAL_TABLE_LIMIT = 1 << 12

# Table index of a root state's floor, 3, in any table (2, 3, 5, ...).
_ROOT_FLOOR_INDEX = 1

# 5, 5*7, 5*7*11, ...: the smallest n with 1, 2, 3, ... admissible prime
# factors, over the primes below 512 (a limit past the last is refused).
_SMALLEST_N_BY_K = list(accumulate(build_prime_table(512).primes[2:], mul))


@dataclass
class SearchCounters:
    """Tallies of expanded nodes and prunes, by reason.

    nodes_expanded counts visited states (internal and endgame).  The
    endgames a node with three primes left solves without building their
    states (see _solve_last_level) count too: every counter ticks as if
    those states were built.  prune_limit counts the branches the limit
    closes: each candidate the lower cut of a node with three primes left
    drops (see _next_primes) and each child with two primes left of such a
    node whose least pair product in its residue class modulo alpha is out
    of reach (see residue_closes), which is then not a node.  Both sources
    are in this module: the endgames close nothing on the limit, they only
    drop pairs over it.  prune_corollary counts the candidate primes q that
    the gcd test, absorb_prime's only prune, rejects: those with p | q - 1
    for a prefix prime p (the paper's second theorem); a q the lower cut
    drops is not tried (see _next_primes).  prune_congruence counts divisor
    pairs discarded by the endgame residue filter, which only factored
    endgames see.  endgame_scan and endgame_factor count the
    two-prime endgames by how they found their divisors: the two-sided scan
    (small q prime to 6 tried one by one, the rest found through their sums
    q + r; see two_prime_solve) or factoring.
    """

    nodes_expanded: int = 0
    prune_limit: int = 0
    prune_corollary: int = 0
    prune_congruence: int = 0
    endgame_scan: int = 0
    endgame_factor: int = 0

    def merge(self, other: "SearchCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters: the k range, an optional bound n <= limit, and
    ``threads``, the worker processes asked for; ``workers`` is how many a
    run may start.

    ``k_max=None`` means every k the limit admits, or ``MAX_UNBOUNDED_K``
    without a limit; ``ks`` is the range a run searches.
    """

    k_min: int = 1
    k_max: int | None = None
    limit: int | None = None
    threads: int = 1

    def __post_init__(self):
        if self.k_min < 1 or (self.k_max is not None and self.k_min > self.k_max):
            raise ValueError(f"need 1 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        if self.threads < 1:
            raise ValueError(f"need threads >= 1, got {self.threads}")
        if self.limit is None and (self.k_max or self.k_min) > MAX_UNBOUNDED_K:
            raise ValueError(
                f"unbounded search supports k <= {MAX_UNBOUNDED_K}; pass a limit to go further"
            )
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"limit must be nonnegative, got {self.limit}")
        self.ks  # refuses a limit beyond any supported search size

    @functools.cached_property
    def ks(self) -> range:
        """The k a run searches: k_min..k_max, capped at MAX_UNBOUNDED_K or, with
        a limit, at the largest k whose smallest n fits under it (empty when
        k_min exceeds that cap)."""
        cap = MAX_UNBOUNDED_K if self.limit is None else max_k_for_limit(self.limit)
        k_max = cap if self.k_max is None else min(self.k_max, cap)
        return range(self.k_min, k_max + 1)

    @property
    def workers(self) -> int:
        """``threads``, but never more than the machine has cores, and 1
        where processes cannot fork: a run starts all its workers at once."""
        if not hasattr(os, "fork"):
            return 1
        return min(self.threads, os.cpu_count() or 1)


@dataclass(frozen=True)
class Solution:
    """A verified solution n = prod(factors) with k = len(factors)."""

    n: int
    factors: tuple[int, ...]
    k: int

    @classmethod
    def from_factors(cls, factors: tuple[int, ...]) -> "Solution":
        """Build and re-verify a solution: strictly ascending primes >= 5
        whose product solves the equation; raises ValueError otherwise."""
        if not factors or any(q >= r for q, r in zip(factors, factors[1:])):
            raise ValueError(f"factors must be strictly ascending, got {factors}")
        if factors[0] < 5 or not all(map(is_prime, factors)):
            raise ValueError(f"solution factors are primes >= 5, got {factors}")
        n = 1
        tot = 1
        for q in factors:
            n *= q
            tot *= q - 1
        if 3 * tot != 2 * n + 2:
            raise ValueError(f"factors {factors} do not satisfy the equation")
        return cls(n=n, factors=tuple(factors), k=len(factors))


def steinerberger_relevance(s: Solution) -> bool:
    """Whether (4n + 1) / 3 is an integer and prime for this solution."""
    m = 4 * s.n + 1
    return m % 3 == 0 and is_prime(m // 3)


def max_k_for_limit(limit: int) -> int:
    """Largest k whose k smallest admissible primes already fit under limit.

    Raises ValueError for a limit beyond any supported search size.
    """
    if limit >= _SMALLEST_N_BY_K[-1]:
        raise ValueError(
            "limit is beyond any supported search size: it reaches the product of the primes 5..509"
        )
    return bisect_right(_SMALLEST_N_BY_K, limit)


# ---------------------------------------------------------------------------
# Tree walk
# ---------------------------------------------------------------------------


def _next_primes(
    state: EquationState, i: int, limit: int | None, table: PrimeTable, counters: SearchCounters
) -> range:
    """Count an internal node as expanded and return the table indices of its
    candidate next primes; i is the index of state.floor in the table.

    With Delta = alpha - beta, they start past alpha // Delta, skipping exactly
    the infeasible q (absorb_prime refuses them): for every g, alpha*(q - 1)/g
    <= beta*q/g <=> Delta*q <= alpha <=> q <= alpha // Delta.  With three primes
    left and a limit, the low end also steps up past each q whose child has
    no pair under the limit, by AM-GM.  A pair (r1, r2) of the child's
    endgame gives divisors f1*f2 = target' with f1, f2 > 0 (see
    two_prime_solve), so f1 + f2 >= 2*sqrt(target') and

        r1*r2 = (target' + alpha'*(f1 + f2) + alpha'**2) / delta'**2
              >= ((sqrt(target') + alpha') / delta')**2.

    With b = prefix_product and g the gcd absorb_prime divides out, the child
    at q has alpha' = alpha*(q - 1)/g, delta' = (Delta*q - alpha)/g and
    target' = (alpha*beta*q*(q - 1) + gamma*(Delta*q - alpha))/g**2, so in
    that bound on n = b*q*r1*r2, g cancels.  As sqrt(target') >=
    sqrt(alpha*beta)*(q - 1), every n of that child is at least
    L(q) = b*K0**2*q*(q - 1)**2 / (Delta*q - alpha)**2, K0 = isqrt(alpha*beta) +
    alpha.  The low end steps up while L(q) exceeds the limit, keeping a q at
    equality: each q skipped is dead on its own, so the cut needs no
    monotonicity, and as L(q) blows up when q falls toward alpha/Delta the run
    it skips is short.  Each q it skips counts as a prune_limit.

    The capped bound lies past i on every state the walk builds, so the
    range is never cut off at the floor: a root's first run of primes fits
    under the limit (max_k_for_limit) and passes the finiteness test, and a
    child's two tests at its floor are its parent's at the prime before q.
    """
    counters.nodes_expanded += 1
    m = finiteness_bound(state, i, table, None if limit is None else limit_bound(state, limit))
    alpha, beta = state.alpha, state.beta
    delta = alpha - beta
    primes = table.primes
    lo = i + 1
    top = alpha // delta
    while lo <= m and primes[lo] <= top:
        lo += 1
    if state.remaining == 3 and limit is not None:
        c = state.prefix_product * (isqrt(alpha * beta) + alpha) ** 2
        start = lo
        while lo <= m:
            q = primes[lo]
            if c * q * (q - 1) ** 2 <= limit * (delta * q - alpha) ** 2:
                break
            lo += 1
        counters.prune_limit += lo - start
    return range(lo, m + 1)


def _expand_node(
    state: EquationState, i: int, limit: int | None, table: PrimeTable, counters: SearchCounters
) -> list[tuple[EquationState, int]]:
    """The children of an internal node, each with the table index of its
    floor (the prime it absorbed)."""
    primes = table.primes
    children = []
    for j in _next_primes(state, i, limit, table, counters):
        child = absorb_prime(state, primes[j])
        if isinstance(child, Pruned):
            # The gcd test, absorb_prime's only prune: on a reachable state,
            # p | q - 1 for a prefix prime p.
            counters.prune_corollary += 1
            continue
        children.append((child, j))
    return children


def _solve_endgame(
    state: EquationState,
    limit: int | None,
    counters: SearchCounters,
    emit: Callable[[tuple[int, ...]], None],
) -> None:
    # Only the k <= 2 roots get here; their prefix is empty, so a
    # FactoringError needs no branch.  Nothing closes on the limit here: a
    # run admits the k = 2 root, whose least n is 5*7 = 35, only when the
    # limit is at least 35 (max_k_for_limit).
    counters.nodes_expanded += 1
    if state.remaining == 1:
        for q in one_prime_solve(state, limit):
            emit(state.prefix + (q,))
        return
    for q, r in two_prime_solve(*two_prime_args(state), limit, counters):
        emit(state.prefix + (q, r))


def _solve_last_level(
    state: EquationState,
    i: int,
    limit: int | None,
    table: PrimeTable,
    counters: SearchCounters,
    emit: Callable[[tuple[int, ...]], None],
) -> None:
    """Expand a node with three primes left and solve every child's endgame.

    Builds no child state: each q runs absorb_prime's gcd test on the raw
    coefficients (every candidate is feasible; see _next_primes), and the
    normalized coefficients go straight to the endgame.  A child on the limit
    whose residue bound closes it (see residue_closes) counts as a
    prune_limit and is not a node; every other child is a node and gets one
    two_prime_solve call.  This gate is the only place a two-prime child
    closes on the limit.
    """
    alpha, beta, gamma = state.alpha, state.beta, state.gamma
    b = state.prefix_product
    primes = table.primes
    try:
        for j in _next_primes(state, i, limit, table, counters):
            q = primes[j]
            # absorb_prime's arithmetic; its docstring proves that the gcd
            # test, its only prune, rejects exactly the q with p | q - 1 for
            # a prefix prime p, and a feasible q passing it is a valid child.
            a2 = alpha * (q - 1)
            b2 = beta * q
            g = gcd(a2, b2)
            if gamma % g:
                counters.prune_corollary += 1
                continue
            a3 = a2 // g
            b3 = b2 // g
            g3 = gamma // g
            bq = b * q
            if limit is not None and residue_closes(a3, b3, g3, q, bq, limit):
                counters.prune_limit += 1
                continue
            counters.nodes_expanded += 1
            for r1, r2 in two_prime_solve(a3, b3, g3, q, bq, limit, counters):
                emit(state.prefix + (q, r1, r2))
    except FactoringError as exc:
        raise FactoringError(exc.n, state.prefix + (q,)) from exc


def _dfs(
    state: EquationState,
    i: int,
    limit: int | None,
    table: PrimeTable,
    counters: SearchCounters,
    emit: Callable[[tuple[int, ...]], None],
) -> None:
    """Walk the subtree of ``state``, whose floor is primes[i]."""
    if state.remaining <= 2:
        _solve_endgame(state, limit, counters, emit)
    elif state.remaining == 3:
        _solve_last_level(state, i, limit, table, counters, emit)
    else:
        for child, j in _expand_node(state, i, limit, table, counters):
            _dfs(child, j, limit, table, counters, emit)


def _walk_task(
    task: tuple[EquationState, int], limit: int | None, table: PrimeTable
) -> tuple[list[tuple[int, ...]], SearchCounters]:
    """Walk one subtree task, a (state, floor index) pair; returns the factors
    of its solutions and its counters.

    The one task walk of serial and multi-worker runs alike: per-task
    measurements belong here.
    """
    counters = SearchCounters()
    found: list[tuple[int, ...]] = []
    _dfs(*task, limit, table, counters, found.append)
    return found, counters


def _solutions(
    results: Iterable[tuple[list[tuple[int, ...]], SearchCounters]], counters: SearchCounters | None
) -> list[Solution]:
    """The verified solutions of walked (found, counters) results, by n."""
    out = []
    for found, walked in results:
        out.extend(Solution.from_factors(f) for f in found)
        if counters is not None:
            counters.merge(walked)
    return sorted(out, key=lambda s: s.n)


# ---------------------------------------------------------------------------
# Parallel driver
# ---------------------------------------------------------------------------

def _make_tasks(
    root: EquationState,
    limit: int | None,
    table: PrimeTable,
    counters: SearchCounters,
    want: int,
) -> list[tuple[EquationState, int]]:
    """Breadth-first expansion until at least ``want`` independent subtree
    tasks, (state, floor index) pairs.

    The split stops at nodes with three primes left, which _solve_last_level
    walks on any worker count; a root with three or fewer is one task.  The
    frontier stays sorted by depth, so its front is the shallowest node.
    """
    frontier: deque[tuple[EquationState, int]] = deque([(root, _ROOT_FLOOR_INDEX)])
    while 0 < len(frontier) < want and frontier[0][0].remaining > 3:
        frontier.extend(_expand_node(*frontier.popleft(), limit, table, counters))
    return list(frontier)


def search_exact_k(
    k: int,
    limit: int | None = None,
    counters: SearchCounters | None = None,
    table: PrimeTable | None = None,
) -> list[Solution]:
    """All solutions with exactly k prime factors (and n <= limit if given).

    A serial walk; ``solve`` spreads a run over worker processes.  Unbounded
    runs are refused for k > ``MAX_UNBOUNDED_K``, and a limit below the
    smallest n with k prime factors walks nothing, as ``solve`` would not
    walk that k (``SearchConfig.ks``).  ``counters``, when supplied, is
    updated in place; ``table`` is the prime table to walk with (a fresh one
    when not supplied), and it grows in place when the walk needs more
    primes.
    """
    ks = SearchConfig(k_min=k, k_max=k, limit=limit).ks  # validates the arguments
    if table is None:
        table = build_prime_table(_INITIAL_TABLE_LIMIT)
    return _solutions([_walk_task((root_state(k), _ROOT_FLOOR_INDEX), limit, table) for k in ks], counters)


def solve(config: SearchConfig, counters: SearchCounters | None = None) -> list[Solution]:
    """All solutions with k in ``config.ks`` (and n <= limit if set), by n.

    ``config.ks`` caps k at what the limit admits, so wide k ranges are safe
    to request.  One prime table, grown in place as the bounds need, serves
    every k; when more than one worker may start, the trees of every k are
    split into subtree tasks and the workers are forked once for all of them.
    """
    if counters is None:
        counters = SearchCounters()
    ks = config.ks
    table = build_prime_table(_INITIAL_TABLE_LIMIT)
    workers = config.workers
    if workers == 1:
        # Through the module global, so a wrapper around search_exact_k sees every k.
        out = [s for k in ks for s in search_exact_k(k, config.limit, counters, table)]
        return sorted(out, key=lambda s: s.n)
    want = 4 * workers
    tasks = [s for k in ks for s in _make_tasks(root_state(k), config.limit, table, counters, want)]
    if not tasks:
        return []  # run_tasks needs at least one process
    # Imported here: a serial run never loads the driver.
    from .parallel import run_tasks

    walk = functools.partial(_walk_task, limit=config.limit, table=table)
    return _solutions(run_tasks(tasks, walk, min(workers, len(tasks))), counters)
