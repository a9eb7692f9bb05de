"""End-to-end tests for the pruned solver and its parallel driver."""

import collections
import dataclasses
import importlib.util
import json
import math
import os
import signal
import types
from pathlib import Path

import pytest

import phi23.arith
import phi23.equation
import phi23.parallel
import phi23.search
from helpers import (
    WALKS,
    brute_force_k,
    check_populated_trees,
    deadline,
    index_of,
    integer_root,
    populated_solutions,
    simple_sieve,
    tight_limit_bound,
)
from phi23.arith import build_prime_table, factorize
from phi23.cli import main
from phi23.equation import (
    EquationState,
    Pruned,
    absorb_prime,
    finiteness_bound,
    limit_bound,
    residue_closes,
    root_state,
    two_prime_args,
    two_prime_solve,
)
from phi23.oracle import scan_solutions
from phi23.parallel import run_tasks
from phi23.search import (
    MAX_UNBOUNDED_K,
    SearchConfig,
    SearchCounters,
    Solution,
    _dfs,
    _expand_node,
    _make_tasks,
    _solve_endgame,
    max_k_for_limit,
    search_exact_k,
    solve,
    steinerberger_relevance,
)

KNOWN_N = [5, 35, 1295, 1_679_615]
KNOWN_FACTORS = {
    5: (5,),
    35: (5, 7),
    1295: (5, 7, 37),
    1_679_615: (5, 7, 37, 1297),
}


def test_exact_k_known_solutions():
    for k, n in enumerate(KNOWN_N, start=1):
        sols = search_exact_k(k)
        assert [s.n for s in sols] == [n]
        assert sols[0].factors == KNOWN_FACTORS[n]
        assert sols[0].k == k


def test_exact_k_5_and_6_empty():
    assert search_exact_k(5) == []
    assert search_exact_k(6) == []


def test_unbounded_large_k_refused():
    with pytest.raises(ValueError):
        search_exact_k(MAX_UNBOUNDED_K + 1)
    with pytest.raises(ValueError):
        search_exact_k(0)
    # with a limit the same k is fine (and empty)
    assert search_exact_k(7, limit=10**9) == []


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(k_min=0)
    with pytest.raises(ValueError):
        SearchConfig(k_min=3, k_max=2)
    with pytest.raises(ValueError):
        SearchConfig(threads=0)
    with pytest.raises(ValueError):
        SearchConfig(k_max=7)  # unbounded beyond the cap
    with pytest.raises(ValueError):
        SearchConfig(k_min=7)  # the default k_max is the unbounded cap
    SearchConfig(k_max=12, limit=10**10)  # bounded is fine
    with pytest.raises(ValueError):
        SearchConfig(limit=-1)
    with pytest.raises(ValueError):
        SearchConfig(limit=10**250)  # beyond any supported search size
    with pytest.raises(ValueError, match="beyond any supported search size"):
        SearchConfig(limit=10**5000)  # past the int-string limit, so never printed
    # ks is the k range a run searches: capped by the limit, may be empty
    assert SearchConfig().ks == range(1, 7)
    assert SearchConfig(limit=10**10).ks == range(1, 9)
    assert SearchConfig(k_max=12, limit=10**10).ks == range(1, 9)
    assert not SearchConfig(k_min=9, limit=10**10).ks


def test_solution_from_factors():
    s = Solution.from_factors((5, 7))
    assert (s.n, s.k) == (35, 2)
    with pytest.raises(ValueError):
        Solution.from_factors(())
    with pytest.raises(ValueError):
        Solution.from_factors((7,))  # 3*6 != 2*7 + 2
    with pytest.raises(ValueError):
        Solution.from_factors((3, 5))  # primes must be >= 5
    with pytest.raises(ValueError):
        Solution.from_factors((7, 5))
    with pytest.raises(ValueError):
        Solution.from_factors((5, 5))
    # 3*4*6*48*132 = 2*228095 + 2, but 49 and 133 are composite
    with pytest.raises(ValueError):
        Solution.from_factors((5, 7, 49, 133))


def test_relevance_of_known_solutions():
    sols = solve(SearchConfig(k_max=12, limit=2_000_000))
    assert [s.n for s in sols] == KNOWN_N
    assert [steinerberger_relevance(s) for s in sols] == [True, True, False, False]
    # the two composite (4n+1)/3 values, factored
    assert (4 * 1295 + 1) // 3 == 1727
    assert dict(factorize(1727).factors) == {11: 1, 157: 1}
    assert (4 * 1_679_615 + 1) // 3 == 2_239_487
    assert dict(factorize(2_239_487).factors) == {23: 1, 97_369: 1}
    # and the two prime ones
    assert (4 * 5 + 1) // 3 == 7
    assert (4 * 35 + 1) // 3 == 47


def test_limit_boundaries():
    def up_to(limit):
        return [s.n for s in solve(SearchConfig(k_max=12, limit=limit))]

    assert up_to(1_679_615) == KNOWN_N
    assert up_to(1_679_614) == [5, 35, 1295]
    assert up_to(5) == [5]
    assert up_to(4) == []
    assert up_to(1295) == [5, 35, 1295]


def test_exact_k_with_limit():
    assert search_exact_k(4, limit=10**6) == []
    assert [s.n for s in search_exact_k(4, limit=10**7)] == [1_679_615]
    assert [s.n for s in search_exact_k(3, limit=1295)] == [1295]
    assert search_exact_k(3, limit=1294) == []


@pytest.mark.parametrize("limit", [4, 5, 10, 20, 34, 35, 1294, 1295, 10**9])
def test_exact_k_walks_what_solve_walks(limit):
    # The library entry walks a k only when solve's range for it does: the
    # same solutions and every counter the same, also where the limit lies
    # below the smallest n with k prime factors (5, 35, 385, ...), so that
    # neither walks that k and no endgame closes on the limit.
    for k in range(1, 11):
        exact = SearchCounters()
        ranged = SearchCounters()
        got = search_exact_k(k, limit, exact)
        assert got == solve(SearchConfig(k_min=k, k_max=k, limit=limit), ranged), (k, limit)
        assert exact == ranged, (k, limit)


def test_search_matches_scan():
    for bound in (10_000, 1_000_000, 2_000_000):
        sols = solve(SearchConfig(k_max=12, limit=bound))
        assert [s.n for s in sols] == scan_solutions(bound), bound


def test_prune_soundness_against_brute_force():
    primes100 = [p for p in simple_sieve(100) if p >= 5]
    for k in (1, 2, 3):
        want = brute_force_k(k, primes100)
        got = {s.factors for s in search_exact_k(k) if s.factors[-1] <= 100}
        assert got == want, k
    primes200 = [p for p in simple_sieve(200) if p >= 5]
    want4 = brute_force_k(4, primes200)
    got4 = {s.factors for s in search_exact_k(4) if s.factors[-1] <= 200}
    assert got4 == want4 == set()


def test_thread_determinism_and_counter_invariance():
    runs = {}
    for threads in (1, 2, 3):
        config = SearchConfig(k_min=1, k_max=4, limit=2_000_000, threads=threads)
        counters = SearchCounters()
        sols = solve(config, counters)
        runs[threads] = ([(s.n, s.factors) for s in sols], counters.as_dict())
    # every node is expanded exactly once no matter how the tree is split,
    # so the full counter vector is worker-count invariant
    assert runs[1] == runs[2] == runs[3]
    assert runs[1][0][-1] == (1_679_615, (5, 7, 37, 1297))


def test_thread_determinism_unbounded_k6():
    seq = search_exact_k(6)
    par = solve(SearchConfig(k_min=6, k_max=6, threads=2))
    assert seq == par == []


def test_counters_populated():
    counters = SearchCounters()
    sols = search_exact_k(6, counters=counters)
    assert sols == []
    stats = counters.as_dict()
    assert set(stats) == {
        "nodes_expanded",
        "prune_limit",
        "prune_corollary",
        "prune_congruence",
        "endgame_scan",
        "endgame_factor",
    }
    assert stats["nodes_expanded"] > 100
    assert stats["prune_corollary"] > 0
    assert stats["prune_congruence"] > 0
    # candidates start past alpha // (alpha - beta): the walk meets no
    # infeasible q, so it keeps no counter for them
    assert not hasattr(counters, "prune_infeasible")
    assert stats["prune_limit"] == 0  # no limit was given


@pytest.mark.parametrize("threads", [1, 2])
def test_unbounded_k1_6_counters_are_pinned(threads):
    # the paper's proof path: the unbounded walk for k = 1..6 finds the four
    # known solutions and proves k = 5 and 6 empty, on one worker or two
    counters = SearchCounters()
    sols = solve(SearchConfig(k_min=1, k_max=6, threads=threads), counters)
    assert [s.n for s in sols] == KNOWN_N
    assert counters.as_dict() == {
        "nodes_expanded": 460,
        "prune_limit": 0,
        "prune_corollary": 259,
        "prune_congruence": 21,
        "endgame_scan": 405,
        "endgame_factor": 11,
    }


def test_limit_1e14_matches_the_paper_bound():
    # the paper's bound: no solution beyond the four known ones up to 1e14,
    # with the same counters on one worker or two
    for threads in (1, 2):
        counters = SearchCounters()
        sols = solve(SearchConfig(limit=10**14, threads=threads), counters)
        assert [s.n for s in sols] == KNOWN_N
        stats = counters.as_dict()
        assert {k: stats[k] for k in ("nodes_expanded", "prune_limit", "prune_corollary")} == {
            "nodes_expanded": 1588,
            "prune_limit": 6060,
            "prune_corollary": 3672,
        }
        # all but 2 endgame calls take at most target**(1/4) scan steps
        assert (counters.endgame_scan, counters.endgame_factor) == (621, 2)
        assert stats == {
            "nodes_expanded": 1588,
            "prune_limit": 6060,
            "prune_corollary": 3672,
            "prune_congruence": 0,
            "endgame_scan": 621,
            "endgame_factor": 2,
        }


def test_limit_1e8_counters_are_pinned():
    # perfbench's test_factoring_error_is_a_failed_pass_not_an_abort runs
    # `search --limit 1e8 --threads 1` with a factorize that always gives up
    # and expects the pass to fail, so it needs endgame_factor >= 1 on this
    # walk; a change to the scan-or-factor rule moves this pin first
    counters = SearchCounters()
    sols = solve(SearchConfig(limit=10**8, threads=1), counters)
    assert [s.n for s in sols] == KNOWN_N
    assert counters.as_dict() == {
        "nodes_expanded": 43,
        "prune_limit": 17,
        "prune_corollary": 9,
        "prune_congruence": 0,
        "endgame_scan": 18,
        "endgame_factor": 1,
    }
    assert counters.endgame_factor >= 1


def test_counters_merge():
    a = SearchCounters(nodes_expanded=2, prune_limit=1)
    b = SearchCounters(nodes_expanded=3, prune_congruence=4)
    a.merge(b)
    assert a.nodes_expanded == 5
    assert a.prune_limit == 1
    assert a.prune_congruence == 4


def test_limit_search_uses_limit_prunes():
    counters = SearchCounters()
    sols = solve(SearchConfig(k_max=12, limit=10**10), counters)
    assert [s.n for s in sols] == KNOWN_N
    assert counters.prune_limit > 0


def _walk_record(monkeypatch, config):
    """Run ``config`` serially, recording what the walk computes.

    Returns the uncapped finiteness bound of every internal node and every
    (state, q, absorb_prime result) the walk tries.  A node with three
    primes left tests its q without absorb_prime; each q of its candidate
    range is replayed through absorb_prime here, so the record covers that
    level too (test_fused_last_level_matches_the_unfused_path checks that the
    replay and the walk agree).
    """
    bounds = []
    absorbed = []
    real_bound = phi23.search.finiteness_bound
    real_absorb = phi23.search.absorb_prime
    real_next = phi23.search._next_primes
    own_table = build_prime_table(1 << 17)

    def bound_spy(state, i, table, room):
        assert table.primes[i] == state.floor, (state, i)
        m = real_bound(state, i, table, room)
        # the capped bound leaves every walk node a candidate range (see _next_primes)
        assert room is None or m > i, (state, room)
        hi = table.primes[m]
        # the walk's primes up to hi come from this table without growing it
        assert hi <= table.limit, (state, hi, table.limit)
        uncapped = own_table.primes[real_bound(state, i, own_table)]
        if room is None:
            assert hi == uncapped <= table.limit, (state, uncapped, table.limit)
        else:
            # the limit closes the scan exactly where consecutive-prime runs
            # stop fitting, never above the integer-root bound it replaced
            assert room == config.limit // state.prefix_product, (state, room)
            want = min(uncapped, tight_limit_bound(state, config.limit))
            assert hi == want, (state, room, hi, want)
            assert hi <= min(uncapped, integer_root(room, state.remaining)), (state, room, hi)
        bounds.append((state, uncapped))
        return m

    def next_spy(state, i, limit, table, counters):
        candidates = real_next(state, i, limit, table, counters)
        if state.remaining == 3:
            for q in table.primes[candidates.start : candidates.stop]:
                absorbed.append((state, q, real_absorb(state, q)))
        return candidates

    def absorb_spy(state, q):
        out = real_absorb(state, q)
        absorbed.append((state, q, out))
        return out

    monkeypatch.setattr(phi23.search, "finiteness_bound", bound_spy)
    monkeypatch.setattr(phi23.search, "_next_primes", next_spy)
    monkeypatch.setattr(phi23.search, "absorb_prime", absorb_spy)
    solve(config)
    return bounds, absorbed


# Candidates the gcd test rejects, by walk: each walk's prune_corollary.  The
# limit's cut drops every candidate of the k17 slice that it would reject.
COROLLARY_FAILS = {"k1-6": 259, "limit-1e12": 400, "limit-1e14": 3672, "k17-1e28": 0}


@pytest.mark.parametrize("config", WALKS.values(), ids=WALKS)
def test_gcd_and_finiteness_prunes_cannot_fire_on_reachable_states(monkeypatch, config):
    # The walk counts no gcd or finiteness prunes; these are the facts it relies on.
    bounds, absorbed = _walk_record(monkeypatch, config)
    children = [out for _, _, out in absorbed if isinstance(out, EquationState)]
    states = [state for state, _ in bounds] + children
    for state in states:
        # the two premises of absorb_prime's proof that the gcd test enforces
        # the paper's second theorem
        assert all(state.beta % p == 0 for p in state.prefix), state
        assert state.gamma in (1, 2), state
    failed = 0
    for state, q, out in absorbed:
        corollary_fails = any((q - 1) % p == 0 for p in state.prefix)
        failed += corollary_fails
        dead = isinstance(out, Pruned)
        assert dead == corollary_fails, (state, q, out)
    (walk,) = [name for name, c in WALKS.items() if c is config]
    assert failed == COROLLARY_FAILS[walk]
    # every internal node had its finiteness bound taken, and it lies above the floor
    internal = {(s.prefix, s.remaining) for s in states if s.remaining > 2}
    assert sorted((s.prefix, s.remaining) for s, _ in bounds) == sorted(internal)
    for state, hi in bounds:
        assert hi > state.floor, state


@pytest.mark.parametrize("config", WALKS.values(), ids=WALKS)
def test_walk_states_replay_through_the_checked_constructor(monkeypatch, config):
    # absorb_prime skips EquationState's validation; every child it returns
    # must pass that validation and be equal to the checked rebuild
    _, absorbed = _walk_record(monkeypatch, config)
    children = [out for _, _, out in absorbed if isinstance(out, EquationState)]
    assert children
    for child in children:
        rebuilt = EquationState(
            prefix=child.prefix,
            alpha=child.alpha,
            beta=child.beta,
            gamma=child.gamma,
            remaining=child.remaining,
        )
        assert rebuilt == child
        assert vars(rebuilt) == vars(child)


@pytest.mark.parametrize("config", WALKS.values(), ids=WALKS)
def test_fused_last_level_matches_the_unfused_path(monkeypatch, config):
    # Every node with three primes left, solved once by the fused loop and
    # once through _expand_node (absorb_prime per q), the residue gate and
    # _solve_endgame (two_prime_solve per child the gate keeps): the same
    # tuples in the same order, the same counters, and the same
    # two_prime_solve calls.
    nodes = []
    real_level = phi23.search._solve_last_level
    real_two = phi23.search.two_prime_solve

    def level_spy(state, i, limit, table, counters, emit):
        nodes.append(state)
        real_level(state, i, limit, table, counters, emit)

    monkeypatch.setattr(phi23.search, "_solve_last_level", level_spy)
    solve(config)
    monkeypatch.undo()
    if config is WALKS["k17-1e28"]:
        # the limit closes every branch of this deep slice above that level
        assert nodes == []
        return
    assert nodes

    endgames = []

    def two_spy(alpha, beta, gamma, floor, prefix_product, limit, counters):
        endgames.append((alpha, beta, gamma, floor, prefix_product, limit))
        return real_two(alpha, beta, gamma, floor, prefix_product, limit, counters)

    monkeypatch.setattr(phi23.search, "two_prime_solve", two_spy)
    table = build_prime_table(1 << 17)
    emitted = 0
    for state in nodes:
        i = index_of(table, state.floor)
        endgames.clear()
        fused_counters = SearchCounters()
        fused: list[tuple[int, ...]] = []
        phi23.search._solve_last_level(state, i, config.limit, table, fused_counters, fused.append)
        fused_endgames = endgames[:]

        endgames.clear()
        counters = SearchCounters()
        unfused: list[tuple[int, ...]] = []
        children = [child for child, _ in _expand_node(state, i, config.limit, table, counters)]
        kept = [
            c for c in children
            if config.limit is None or not residue_closes(*two_prime_args(c), config.limit)
        ]
        counters.prune_limit += len(children) - len(kept)
        for child in kept:
            _solve_endgame(child, config.limit, counters, unfused.append)

        assert fused == unfused, state
        assert fused_counters == counters, state
        assert fused_endgames == endgames == [
            (c.alpha, c.beta, c.gamma, c.floor, c.prefix_product, config.limit) for c in kept
        ], state
        emitted += len(fused)
    assert emitted > 0


def test_last_level_cut_drops_only_children_without_pairs(monkeypatch):
    # On every internal node of the 1e14 walk, the candidates run up to the
    # limit-capped finiteness index, and each one the limit cuts, past alpha
    # // Delta and below the first one kept (the lower cut), either dies in
    # absorb_prime or leaves a child with no solution under the limit: the
    # child's own state, built by absorb_prime, has r primes left whose
    # product Y is at most limit // b' and, by the lemma of _next_primes
    # (test_lemma_holds_on_every_known_solution), above (r*beta'/Delta')**r.
    # A child with two primes left has no pair under the limit by the
    # unlimited endgame too.  Each child the residue gate closes in the fused
    # loop has no pair under the limit either, by the unlimited endgame on
    # both strategies, and the bound holds by a recomputation here.
    # prune_limit counts the branches the limit closes, and these are its
    # only two sources: it is recounted here from the lower cuts and the
    # gate's closures, and matches the counter on one worker and on two.
    nodes = []
    closed_children = []
    closed = {"lower": 0, "residue": 0}
    lower_by_left = collections.Counter()
    limit = WALKS["limit-1e14"].limit
    table = build_prime_table(1 << 17)
    real_next = phi23.search._next_primes
    real_residue = phi23.search.residue_closes
    real_solve = phi23.search.two_prime_solve

    def next_spy(state, i, limit, table, counters):
        candidates = real_next(state, i, limit, table, counters)
        nodes.append((state, i, candidates))
        return candidates

    def residue_spy(alpha, beta, gamma, floor, b, limit):
        shut = real_residue(alpha, beta, gamma, floor, b, limit)
        if shut:
            closed_children.append((alpha, beta, gamma, floor, b))
        return shut

    def solve_spy(alpha, beta, gamma, floor, b, limit, counters):
        # the walk hands over only the children the residue gate keeps
        assert not real_residue(alpha, beta, gamma, floor, b, limit)
        return real_solve(alpha, beta, gamma, floor, b, limit, counters)

    monkeypatch.setattr(phi23.search, "_next_primes", next_spy)
    monkeypatch.setattr(phi23.search, "residue_closes", residue_spy)
    monkeypatch.setattr(phi23.search, "two_prime_solve", solve_spy)
    counters = SearchCounters()
    solve(WALKS["limit-1e14"], counters)
    monkeypatch.undo()
    primes = table.primes
    endgames = 0
    for state, i, candidates in nodes:
        uncut = finiteness_bound(state, i, table, limit_bound(state, limit))
        assert candidates.stop - 1 == uncut, state
        top = state.alpha // (state.alpha - state.beta)
        for q in primes[i + 1 : candidates.start]:
            if q <= top:
                continue
            closed["lower"] += 1
            lower_by_left[state.remaining] += 1
            child = absorb_prime(state, q)
            if isinstance(child, Pruned):
                continue
            r = child.remaining
            b = child.prefix_product
            assert (limit // b) * (child.alpha - child.beta) ** r <= (r * child.beta) ** r, child
            if r == 2:
                endgames += 1
                pairs = two_prime_solve(*two_prime_args(child))
                assert [(q2, r2) for q2, r2 in pairs if b * q2 * r2 <= limit] == [], child
    for args in closed_children:
        alpha, beta, gamma, floor, b = args
        # q*r = -gamma/beta (mod alpha) and q*r > floor**2
        c = -gamma * pow(beta, -1, alpha) % alpha
        assert b * (floor * floor + (c - floor * floor) % alpha) > limit, args
        for strategy in ("scan", "factor"):
            pairs = two_prime_solve(*args, strategy=strategy)
            assert [(q, r) for q, r in pairs if b * q * r <= limit] == [], (args, strategy)
    closed["residue"] = len(closed_children)
    assert collections.Counter(state.remaining for state, _, _ in nodes) == {
        3: 693, 4: 168, 5: 57, 6: 26, 7: 12, 8: 4, 9: 2, 10: 1, 11: 1
    }
    assert endgames == 783
    assert lower_by_left == {3: 1244, 4: 150, 5: 27, 6: 10, 7: 6, 8: 4, 9: 1, 10: 2, 11: 1}
    assert closed == {"lower": 1445, "residue": 4615}
    recount = sum(closed.values())
    assert counters.prune_limit == recount == 6060
    for threads in (1, 2):
        counters = SearchCounters()
        solve(dataclasses.replace(WALKS["limit-1e14"], threads=threads), counters)
        assert counters.prune_limit == recount, threads


@pytest.mark.parametrize(
    "prefix, alpha, beta, limit, uncut, candidates, prune_limit",
    [
        # b = 13, alpha = 351, beta = 329: Delta = 22 and alpha // Delta = 15.
        # The range runs up to the capped finiteness index, 23 at limits
        # 269,100 and 269,099 alike, and the lower cut, which drops q while
        # 13*q*(2*329*q)**2 >= limit*(22*q - 351)**2, drops 17, 19 and 23:
        # three prune_limit ticks.
        ((13,), 351, 329, 269_100, 23, [], 3),
        ((13,), 351, 329, 269_099, 23, [], 3),
        # the run 17*19*23 fits; the lower cut drops 17: one tick
        ((13,), 351, 329, 100_000, 17, [], 1),
        # b = 5, alpha = 11, beta = 10: Delta = 1 and alpha // Delta = 11.
        # The infeasible prefix holds every candidate, and skipping it ticks
        # no prune_limit.
        ((5,), 11, 10, 11_340, 7, [], 0),
        ((5,), 11, 10, 11_339, 7, [], 0),
        # the run 7*11*13 fits under 5005 / 5 and the infeasible prefix
        # holds 7 and 11; one less and the capped bound stops at the floor,
        # as on no walk state (see _next_primes): the range is empty and
        # ticks nothing
        ((5,), 11, 10, 5_005, 7, [], 0),
        ((5,), 11, 10, 5_004, 5, [], 0),
        # the lower cut drops q while 5*q*(2*10*q)**2 >= limit*(q - 11)**2;
        # here it drops 13, 17 and 19, every candidate: three ticks
        ((5,), 11, 10, 100_000, 19, [], 3),
        # at q = 13 its sides meet at limit 5*13*260**2 / 2**2 = 1,098,500,
        # where 13 is dropped, as every n of its child is then above the
        # limit; one more and 13 is kept, and so is everything after it
        ((5,), 11, 10, 1_098_501, 23, [13, 17, 19, 23], 0),
        ((5,), 11, 10, 1_098_500, 23, [17, 19, 23], 1),
    ],
    # The first five ids were named for a top cut the range no longer has,
    # and the last two for the equality limit of an earlier form of the
    # lower cut; each row keeps its id.
    ids=[
        "269100-23-candidates0-0",
        "269099-23-candidates1-0",
        "100000-17-candidates2-1",
        "top-11340",
        "top-11339",
        "node-5005",
        "node-5004",
        "lower-100000",
        "lower-266560",
        "lower-266559",
    ],
)
def test_last_level_cut_boundary(prefix, alpha, beta, limit, uncut, candidates, prune_limit):
    # Not walk states.  The lower cut drops a q at equality, and the range
    # stops at the limit-capped finiteness index ``uncut``.
    st = EquationState(prefix=prefix, alpha=alpha, beta=beta, gamma=1, remaining=3)
    table = build_prime_table(1 << 12)
    i = index_of(table, prefix[-1])
    m = finiteness_bound(st, i, table, limit_bound(st, limit))
    assert table.primes[m] == uncut
    counters = SearchCounters()
    got = phi23.search._next_primes(st, i, limit, table, counters)
    assert got.stop - 1 == m
    assert [table.primes[j] for j in got] == candidates
    assert (counters.nodes_expanded, counters.prune_limit) == (1, prune_limit)


@pytest.mark.parametrize("walk", ["k1-6", "limit-1e14", "k17-1e28"])
def test_candidates_start_past_the_infeasible_prefix(monkeypatch, walk):
    # At every internal node the candidates start past alpha // (alpha -
    # beta): each prime skipped above the floor up to that dies in
    # absorb_prime, which prunes it on the gcd test or refuses it as
    # infeasible, and no candidate kept is refused.  Only a node under a
    # limit skips primes past it too, each one by the limit's lower cut
    # (test_last_level_cut_drops_only_children_without_pairs checks that
    # they have no solution under the limit).
    nodes = []
    real_next = phi23.search._next_primes

    def next_spy(state, i, limit, table, counters):
        candidates = real_next(state, i, limit, table, counters)
        primes = table.primes
        nodes.append((state, primes[i + 1 : candidates.start], primes[candidates.start : candidates.stop]))
        return candidates

    monkeypatch.setattr(phi23.search, "_next_primes", next_spy)
    solve(WALKS[walk])
    assert nodes
    limit = WALKS[walk].limit
    skipped = cut = 0
    for state, dropped, kept in nodes:
        delta = state.alpha - state.beta
        top = state.alpha // delta
        e = state.remaining - 1
        for q in dropped:
            if q > top:
                assert limit is not None, (state, q)
                b = state.prefix_product
                assert b * q * (e * state.beta * q) ** e >= limit * (delta * q - state.alpha) ** e, (state, q)
                cut += 1
                continue
            try:
                out = absorb_prime(state, q)
            except ValueError:
                continue
            assert isinstance(out, Pruned), (state, q)
        for q in kept:
            assert q > top, (state, q)
            absorb_prime(state, q)  # raises on an infeasible q
        skipped += sum(q <= top for q in dropped)
    # primes skipped as infeasible and dropped by the cut: the cut leaves the
    # k17 slice no node that would skip any
    assert (skipped, cut) == {"k1-6": (256, 0), "limit-1e14": (848, 1445), "k17-1e28": (0, 9)}[walk]


def test_candidates_start_past_alpha_over_delta():
    # alpha = 13, beta = 12: Delta = 1 and alpha // Delta = 13.  At q = 13,
    # exactly alpha / Delta, alpha*(q - 1) == beta*q, so 13 is dropped; 17 is
    # the first candidate.
    st = EquationState((), 13, 12, 1, 3)
    table = build_prime_table(1 << 12)
    assert 13 * (13 - 1) == 12 * 13 and 13 * (17 - 1) > 12 * 17
    candidates = phi23.search._next_primes(st, 1, None, table, SearchCounters())
    assert table.primes[candidates.start - 1] == 13
    assert table.primes[candidates.start] == 17 < table.primes[candidates.stop - 1]


def test_populated_trees_match_brute_force():
    # The 2/3 equation has one chain of four solutions; the 358 roots of
    # helpers.populated_roots have 55 solutions below 2e6 between them, some
    # off any chain: (9, 7, 1) has 5, 77, 185, 5369, 41657 and 239945.  The
    # walk finds exactly the brute-force set of each root, and again with the
    # limit set to each of its solutions, which catches a bound that prunes
    # too much.  A manual workflow runs the same check to 2e8.
    assert check_populated_trees(2_000_000) == (358, 55)


def test_lemma_holds_on_every_known_solution():
    # The lemma behind the limit's lower cut (see _next_primes): on a state
    # with r primes left of product Y, prod(1 - 1/p) = beta/alpha +
    # gamma/(alpha*Y) > beta/alpha, so sum(1/p) < ln(alpha/beta) <=
    # Delta/beta and, as the geometric mean of the p is at least their
    # harmonic mean, Y*Delta**r > (r*beta)**r.  Checked at every split of
    # every brute-force solution of every populated root below 2e6, and of
    # the four known solutions, into a prefix and r >= 1 remaining primes.
    small = simple_sieve(math.isqrt(2_000_000))
    cases = [(root, n) for root, ns in populated_solutions(2_000_000).items() for n in ns]
    cases += [((3, 2, 2), n) for n in KNOWN_N]
    splits = 0
    for (alpha, beta, gamma), n in cases:
        factors, m = [], n
        for p in small:
            if m % p == 0:
                factors.append(p)
                m //= p
        if m > 1:
            factors.append(m)
        assert math.prod(factors) == n, n  # square-free
        state = EquationState((), alpha, beta, gamma, len(factors))
        for j, q in enumerate(factors):
            r = len(factors) - j
            y = math.prod(factors[j:])
            assert y * (state.alpha - state.beta) ** r > (r * state.beta) ** r, (state, factors)
            splits += 1
            if r > 1:
                state = absorb_prime(state, q)
    assert (len(cases), splits) == (59, 110)


@pytest.mark.parametrize("config", WALKS.values(), ids=WALKS)
def test_every_node_makes_one_bound_or_endgame_call(monkeypatch, config):
    # One next-prime bound per internal node and one one_prime_solve or
    # two_prime_solve call per endgame, the fused level's included: the
    # benchmark's tracer (perfbench/spans.py) counts the nodes by these calls.
    calls = dict.fromkeys(("finiteness_bound", "limit_bound", "one_prime_solve", "two_prime_solve"), 0)
    for name in calls:
        real = getattr(phi23.search, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(phi23.search, name, spy)
    counters = SearchCounters()
    solve(config, counters)
    bounds = calls["finiteness_bound"] if config.limit is None else calls["limit_bound"]
    assert bounds + calls["one_prime_solve"] + calls["two_prime_solve"] == counters.nodes_expanded
    assert calls["two_prime_solve"] > 0 or config is WALKS["k17-1e28"]


def test_one_prime_table_per_run(monkeypatch):
    # a table built by the search or regrown by PrimeTable.grow counts alike
    calls = []
    real = phi23.arith.build_prime_table

    def spy(limit):
        calls.append(limit)
        return real(limit)

    monkeypatch.setattr(phi23.search, "build_prime_table", spy)
    monkeypatch.setattr(phi23.arith, "build_prime_table", spy)
    assert [s.n for s in solve(SearchConfig(k_min=1, k_max=6))] == KNOWN_N
    assert len(calls) == 1
    # under a limit the finiteness scan stops at the limit bound, so the
    # walk never needs the tails of primes past it
    calls.clear()
    assert [s.n for s in solve(SearchConfig(limit=10**14))] == KNOWN_N
    assert len(calls) == 1
    calls.clear()
    assert solve(SearchConfig(k_min=22, k_max=22, limit=10**38)) == []
    assert len(calls) == 1


@pytest.mark.parametrize("walker", [None, "parent", "children"],
                         ids=["default", "parent-claims-all", "parent-claims-none"])
def test_one_pool_per_run(monkeypatch, only_walker, walker):
    # Each extra worker is forked once per run, however many k it covers, and
    # the merged result does not depend on which process walks which task.
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    forks = []
    real_fork = os.fork

    def fork_spy():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork_spy)
    if walker:
        only_walker(walker)
    config = SearchConfig(k_max=12, limit=2_000_000, threads=2)
    serial_counters = SearchCounters()
    serial = solve(dataclasses.replace(config, threads=1), serial_counters)
    assert forks == []
    counters = SearchCounters()
    assert solve(config, counters) == serial
    assert len(forks) == 1
    assert counters == serial_counters
    assert [s.n for s in serial] == KNOWN_N


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("walk", ["k1-6", "limit-1e14"])
def test_walk_looks_up_no_floor_by_value(monkeypatch, fake_pool, walk, threads):
    # The walk takes every next prime at a known table index, hands each
    # node its floor's index and gets the node's bound back as an index, so
    # on one worker as on two it looks nothing up by value: it makes no
    # bisection at all.  phi23.search keeps bisect_right for
    # max_k_for_limit's k cap only.
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert not hasattr(phi23.arith.PrimeTable, "index_of")
    for module in (phi23.arith, phi23.equation):
        assert not any(name.startswith("bisect") for name in vars(module)), module
    assert [name for name in vars(phi23.search) if name.startswith("bisect")] == ["bisect_right"]
    lookups, k_caps = [], []
    real_bisect = phi23.search.bisect_right
    real_max_k = phi23.search.max_k_for_limit

    def bisect_spy(a, *args, **kwargs):
        lookups.append(a)
        return real_bisect(a, *args, **kwargs)

    def max_k_spy(limit):
        k_caps.append(limit)
        return real_max_k(limit)

    monkeypatch.setattr(phi23.search, "bisect_right", bisect_spy)
    monkeypatch.setattr(phi23.search, "max_k_for_limit", max_k_spy)
    counters = SearchCounters()
    assert [s.n for s in solve(dataclasses.replace(WALKS[walk], threads=threads), counters)] == KNOWN_N
    assert len(lookups) == len(k_caps)
    assert all(a is phi23.search._SMALLEST_N_BY_K for a in lookups)
    assert fake_pool == ([2] if threads == 2 else [])
    if walk == "limit-1e14":
        assert counters.nodes_expanded == 1_588


def test_pool_size_is_capped_by_the_cores(monkeypatch, fake_pool):
    # A run forks all its workers at once, so --threads 100000 must neither
    # fork 100,000 processes nor split the tree into 400,000 tasks.
    pools = fake_pool
    wants = []
    real_make_tasks = phi23.search._make_tasks

    def make_tasks_spy(root, limit, table, counters, want):
        wants.append(want)
        return real_make_tasks(root, limit, table, counters, want)

    monkeypatch.setattr(phi23.search, "_make_tasks", make_tasks_spy)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    config = SearchConfig(k_max=12, limit=2_000_000, threads=100_000)
    serial_counters = SearchCounters()
    serial = solve(dataclasses.replace(config, threads=1), serial_counters)
    counters = SearchCounters()
    assert solve(config, counters) == serial
    assert counters == serial_counters
    assert [s.n for s in serial] == KNOWN_N
    assert pools == [3]
    assert set(wants) == {12}
    # fewer tasks than cores: one worker per task (k = 1 and k = 2 are one task each)
    pools.clear()
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    assert [s.n for s in solve(SearchConfig(limit=100, threads=64))] == [5, 35]
    assert pools == [2]
    # an unknown core count means one worker: the run walks in-process
    pools.clear()
    wants.clear()
    monkeypatch.setattr("os.cpu_count", lambda: None)
    counters = SearchCounters()
    assert solve(config, counters) == serial
    assert counters == serial_counters
    assert pools == []
    assert wants == []


def test_stats_report_the_workers_started(monkeypatch, capsys, fake_pool):
    # --stats reports the workers the run may start, not the --threads asked for
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    argv = ["search", "--limit", "2e6", "--stats", "--format", "json"]
    assert main([*argv, "--threads", "100000"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["report"]["threads"] == 3
    assert fake_pool == [3]
    assert main(argv) == 0  # the default asks for every core
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["report"]["threads"] == 3
    assert main([*argv, "--threads", "2"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["report"]["threads"] == 2
    assert fake_pool == [3, 3, 2]
    # an unknown core count means one worker, which walks in-process: nothing
    # is forked, and the solutions and counters are those of --threads 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    text = ["search", "--limit", "2e6", "--stats"]
    assert main([*text, "--threads", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert " threads=1 " in lines[-2]
    assert fake_pool == [3, 3, 2]
    assert main([*text, "--threads", "1"]) == 0
    serial = capsys.readouterr().out.splitlines()
    assert lines[:-2] == serial[:-2]
    assert lines[-1] == serial[-1]


def test_every_tree_level_takes_one_path_on_two_workers(monkeypatch, fake_pool):
    # The split stops at nodes with three primes left, so on two workers as
    # on one, _expand_node sees only nodes with four or more left (the fused
    # _solve_last_level takes those with three), and _solve_endgame only the
    # k <= 2 roots.
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    expanded, endgames = [], []
    real_expand = phi23.search._expand_node
    real_endgame = phi23.search._solve_endgame

    def expand_spy(state, *args):
        expanded.append(state)
        return real_expand(state, *args)

    def endgame_spy(state, *args):
        endgames.append(state)
        return real_endgame(state, *args)

    monkeypatch.setattr(phi23.search, "_expand_node", expand_spy)
    monkeypatch.setattr(phi23.search, "_solve_endgame", endgame_spy)
    for config in (SearchConfig(k_min=1, k_max=6, threads=2), SearchConfig(limit=10**14, threads=2)):
        serial_counters = SearchCounters()
        serial = solve(dataclasses.replace(config, threads=1), serial_counters)
        expanded.clear()
        endgames.clear()
        counters = SearchCounters()
        assert solve(config, counters) == serial
        assert counters == serial_counters
        assert expanded and min(s.remaining for s in expanded) >= 4
        assert [s.prefix for s in endgames] == [(), ()]
    assert fake_pool == [2, 2]


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_driver_returns_many_tasks_in_task_order():
    # the token pipe holds one token per process however many tasks there are
    def walk(task):
        return [(task,)], SearchCounters(nodes_expanded=1)

    with deadline(60):
        results = run_tasks(range(20_000), walk, 2)
    assert [found for found, _ in results] == [[(i,)] for i in range(20_000)]
    assert all(counters == SearchCounters(nodes_expanded=1) for _, counters in results)
    assert_no_children()


@pytest.mark.parametrize("processes", [0, -1])
def test_driver_refuses_fewer_than_one_process(monkeypatch, processes):
    # with no process the token pipe would start empty and the first claim
    # would block forever: refused before any pipe or child is made
    def boom(*_):
        raise AssertionError("the driver made a pipe or forked")

    monkeypatch.setattr(os, "pipe", boom)
    monkeypatch.setattr(os, "fork", boom)
    with deadline(60), pytest.raises(ValueError, match="need processes >= 1"):
        run_tasks(range(3), lambda t: t, processes)
    assert_no_children()


@pytest.mark.parametrize("processes", [1, 2])
def test_driver_stands_alone(processes):
    # the driver maps any walk over any tasks and imports nothing from phi23,
    # so it loads and runs outside the package
    spec = importlib.util.spec_from_file_location(
        "standalone_driver", Path(phi23.parallel.__file__)
    )
    driver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(driver)
    with deadline(60):
        assert driver.run_tasks(range(100), lambda t: t * t, processes) == [
            t * t for t in range(100)
        ]
    assert_no_children()


@pytest.mark.parametrize("fails", [None, "child", "parent"])
def test_driver_reaps_every_child(monkeypatch, fails):
    # after a normal run, a child's exception and an exception in the
    # parent's own share alike, no child of this process is left
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    parent = os.getpid()
    real_walk = phi23.parallel._walk_tasks

    def walk(*args):
        if fails == ("parent" if os.getpid() == parent else "child"):
            raise ValueError(f"{fails} failed")
        return real_walk(*args)

    monkeypatch.setattr(phi23.parallel, "_walk_tasks", walk)
    config = SearchConfig(k_max=12, limit=2_000_000, threads=2)
    with deadline(60):
        if fails:
            with pytest.raises(ValueError, match=f"{fails} failed"):
                solve(config)
        else:
            assert [s.n for s in solve(config)] == KNOWN_N
    assert_no_children()


@pytest.mark.parametrize("holding_a_token", [False, True], ids=["idle", "holding-a-token"])
def test_driver_raises_when_a_child_dies(monkeypatch, holding_a_token):
    # a child killed before it sends its results, even one that dies right
    # after taking a task token, makes the run raise instead of hang
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    parent = os.getpid()
    real_walk = phi23.parallel._walk_tasks

    def walk(tasks, task_walk, tokens, stride):
        if os.getpid() != parent:
            if holding_a_token:
                os.read(tokens[0], 8)
            os.kill(os.getpid(), signal.SIGKILL)
        return real_walk(tasks, task_walk, tokens, stride)

    monkeypatch.setattr(phi23.parallel, "_walk_tasks", walk)
    with deadline(60), pytest.raises(RuntimeError, match="exited without sending its results"):
        solve(SearchConfig(k_max=12, limit=2_000_000, threads=2))
    assert_no_children()


def test_package_import_keeps_search_a_module():
    assert isinstance(phi23.search, types.ModuleType)


def test_task_partition_covers_the_whole_tree():
    # the parallel driver must see exactly the subtrees the sequential walk
    # sees, and never splits a node with three primes left (k = 3's root is
    # its only task)
    for k in (3, 4, 5, 6):
        full: list[tuple[int, ...]] = []
        _dfs(root_state(k), 1, None, build_prime_table(1 << 17), SearchCounters(), full.append)

        table = build_prime_table(1 << 17)
        counters = SearchCounters()
        tasks = _make_tasks(root_state(k), None, table, counters, want=10)
        assert len({t.prefix for t, _ in tasks}) == len(tasks)
        assert all(t.remaining >= 3 for t, _ in tasks), k
        assert all(table.primes[i] == t.floor for t, i in tasks), k
        if k == 3:
            assert tasks == [(root_state(3), 1)]
        merged: list[tuple[int, ...]] = []
        for task, i in tasks:
            _dfs(task, i, None, table, counters, merged.append)
        assert sorted(merged) == sorted(full)


def test_max_k_for_limit_values():
    assert max_k_for_limit(4) == 0
    assert max_k_for_limit(5) == 1
    assert max_k_for_limit(34) == 1
    assert max_k_for_limit(35) == 2
    assert max_k_for_limit(10**7) == 6
    assert max_k_for_limit(10**10) == 8
    assert max_k_for_limit(10**14) == 11
    # the supported range ends just below the product of the primes 5..509
    primes = [p for p in simple_sieve(512) if p >= 5]
    top = 1
    for p in primes:
        top *= p
    assert max_k_for_limit(top - 1) == len(primes) - 1
    with pytest.raises(ValueError, match="beyond any supported search size"):
        max_k_for_limit(top)


def test_prime_table_growth():
    table = build_prime_table(128)
    primes = table.primes
    prefix = list(primes)
    table.grow()
    assert table.limit == 512
    assert table.primes is primes  # grown in place
    assert list(primes[: len(prefix)]) == prefix
    table.grow()
    assert table.limit == 2_048
    assert list(table.primes) == simple_sieve(2_048)
