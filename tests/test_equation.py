"""Tests for residual-equation states, pruning, bounds, and endgames."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import phi23.arith
import phi23.equation
import phi23.search
from helpers import (
    WALKS,
    absorb_chain,
    endgame_params,
    index_of,
    integer_root,
    linear_finiteness_bound,
    literal_pairs,
    pair_scan,
    reachable_endgame_states,
    rolling_finiteness_bound,
    simple_sieve,
    tight_limit_bound,
)
from phi23.arith import (
    build_prime_table,
    factorize,
    gcd,
)
from phi23.equation import (
    SIEVE_MODULI,
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
    _prime_to_6,
    _square_steps,
)
from phi23.search import SearchConfig, SearchCounters, solve


@pytest.fixture(scope="module")
def table_100k():
    return build_prime_table(100_000)


def bound(st, table, room=None):
    """The prime at finiteness_bound's index, scanned from st.floor, whose
    table index is found by value."""
    return table.primes[finiteness_bound(st, index_of(table, st.floor), table, room)]


def state(prefix, alpha, beta, gamma, remaining):
    return EquationState(
        prefix=tuple(prefix), alpha=alpha, beta=beta, gamma=gamma, remaining=remaining
    )


def test_root_state():
    st = root_state(4)
    assert (st.alpha, st.beta, st.gamma) == (3, 2, 2)
    assert st.prefix == ()
    assert st.remaining == 4
    assert st.floor == 3
    assert st.prefix_product == 1
    with pytest.raises(ValueError):
        root_state(0)


def test_state_invariants_enforced():
    with pytest.raises(ValueError):
        state((), 2, 3, 1, 1)  # alpha <= beta
    with pytest.raises(ValueError):
        state((), 3, 2, 0, 1)  # gamma < 1
    with pytest.raises(ValueError):
        state((), 6, 4, 1, 1)  # not coprime
    with pytest.raises(ValueError):
        state((), 3, 2, 2, 0)  # nothing remaining
    with pytest.raises(ValueError):
        state((7, 5), 3, 2, 2, 1)  # prefix out of order


def test_absorb_chain_golden_values():
    st = root_state(4)
    st = absorb_prime(st, 5)
    assert (st.alpha, st.beta, st.gamma) == (6, 5, 1)
    assert st.prefix == (5,)
    st2 = absorb_prime(st, 7)
    assert (st2.alpha, st2.beta, st2.gamma) == (36, 35, 1)
    st3 = absorb_prime(st2, 37)
    assert (st3.alpha, st3.beta, st3.gamma) == (1296, 1295, 1)
    assert st3.remaining == 1
    alt = absorb_prime(st, 13)
    assert (alt.alpha, alt.beta, alt.gamma) == (72, 65, 1)


def test_absorb_gcd_prune():
    st = absorb_prime(root_state(4), 5)
    pruned = absorb_prime(st, 11)
    assert pruned == Pruned(11, 60, 55, 5)
    assert (pruned.prime, pruned.alpha, pruned.beta, pruned.gcd) == (11, 60, 55, 5)
    assert gcd(60, 55) == 5


def test_absorb_refuses_an_infeasible_child():
    # (5, 7) leaves alpha = 36, beta = 35, so alpha // Delta = 36.  At 23,
    # 36*22 = 792 <= 35*23 = 805 with gcd 1: no valid child, a refusal
    st = absorb_chain((5, 7))
    assert (36 * 22, 35 * 23) == (792, 805) and gcd(792, 805) == 1
    with pytest.raises(ValueError):
        absorb_prime(st, 23)
    # an infeasible q that fails the gcd test still returns its evidence
    assert absorb_prime(st, 11) == Pruned(11, 360, 385, 5)
    # alpha = 13, beta = 12: Delta*q = alpha at q = 13, where alpha*(q - 1)
    # = beta*q = 156.  With a reachable gamma in {1, 2} the gcd test rejects
    # that q; with gamma = 156 it passes and normalizes to alpha = beta = 1,
    # which is refused.  The next prime, 17, is feasible.
    assert absorb_prime(EquationState((), 13, 12, 1, 3), 13) == Pruned(13, 156, 156, 156)
    st = EquationState((), 13, 12, 156, 3)
    with pytest.raises(ValueError):
        absorb_prime(st, 13)
    child = absorb_prime(st, 17)
    assert (child.alpha, child.beta, child.gamma, child.remaining) == (52, 51, 39, 2)


def test_absorb_rejects_bad_primes():
    st = absorb_chain((5, 7))
    with pytest.raises(ValueError):
        absorb_prime(st, 7)  # not beyond the floor
    with pytest.raises(ValueError):
        absorb_prime(st, 5)
    with pytest.raises(ValueError):
        absorb_prime(root_state(2), 4)


def test_absorb_into_the_last_slot():
    # a state with one prime left has no child state: a q that prunes is
    # reported as before, one that does not is refused, feasible or not
    with pytest.raises(ValueError):
        absorb_prime(root_state(1), 5)
    with pytest.raises(ValueError):
        absorb_prime(absorb_chain((5,), extra=1), 7)
    assert absorb_prime(absorb_chain((5,), extra=1), 11) == Pruned(11, 60, 55, 5)
    with pytest.raises(ValueError):
        absorb_prime(absorb_chain((5, 7), extra=1), 23)


def test_gamma_stays_small_on_reachable_states():
    primes = [p for p in simple_sieve(200) if p >= 5]
    states = reachable_endgame_states(primes, max_product=200_000, max_len=3)
    assert len(states) == 4498
    for st in states:
        assert st.gamma in (1, 2)
        assert gcd(st.alpha, st.beta) == 1
        assert st.alpha > st.beta


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def test_finiteness_bound_golden(table_100k):
    assert bound(root_state(4), table_100k) == 5
    assert bound(root_state(1), table_100k) == 5
    st5 = absorb_chain((5,), extra=3)
    assert bound(st5, table_100k) == 13
    st5_last = absorb_chain((5,), extra=1)
    assert bound(st5_last, table_100k) == 7
    st537 = absorb_chain((5, 7, 37), extra=1)
    assert bound(st537, table_100k) == 1297
    # the closed-form last prime must sit exactly at its bound
    assert one_prime_solve(st537) == [1297]


def test_finiteness_bound_cross_checked_fractions(table_100k):
    # root with four primes left: the tail past 5 clears the threshold
    lhs = Fraction(6 * 10 * 12 * 16, 7 * 11 * 13 * 17)
    rhs = Fraction(2, 3) + Fraction(2, 3 * 7 * 11 * 13 * 17)
    assert lhs > rhs
    prev_lhs = Fraction(4 * 6 * 10 * 12, 5 * 7 * 11 * 13)
    prev_rhs = Fraction(2, 3) + Fraction(2, 3 * 5 * 7 * 11 * 13)
    assert prev_lhs < prev_rhs
    # after absorbing 5, three primes left: tail (17, 19, 23) clears it
    lhs2 = Fraction(16 * 18 * 22, 17 * 19 * 23)
    rhs2 = Fraction(5, 6) + Fraction(1, 6 * 17 * 19 * 23)
    assert lhs2 > rhs2
    prev2 = Fraction(12 * 16 * 18, 13 * 17 * 19)
    assert prev2 < Fraction(5, 6) + Fraction(1, 6 * 13 * 17 * 19)


def test_finiteness_bound_can_return_floor(table_100k):
    st = state((5,), 100, 3, 1, 1)
    assert bound(st, table_100k) == 5


def test_finiteness_bound_exhaustion():
    # primes up to 19 only; the scan needs the tail (17, 19, 23), so the
    # table grows in place and the scan goes on
    tiny = build_prime_table(20)
    primes = tiny.primes
    st = state((5,), 6, 5, 1, 3)
    assert bound(st, tiny) == 13
    assert tiny.limit == 80
    assert tiny.primes is primes
    assert list(primes) == simple_sieve(80)


def test_finiteness_bound_cap_golden(table_100k):
    # a room caps the bound through products of consecutive primes
    st5 = absorb_chain((5,), extra=3)  # floor 5, uncapped bound 13
    # the runs of three primes past 5: 7*11*13 = 1001, 11*13*17 = 2431,
    # 13*17*19 = 4199 and 17*19*23 = 7429
    for room, want in [
        (1, 5),  # below the floor's first run: the floor
        (1000, 5),
        (1001, 7),  # equal to a run's product: the run fits
        (2430, 7),  # one below a run's product: it does not
        (2431, 11),
        (4198, 11),
        (4199, 13),  # the run of the uncapped bound
        (7428, 13),
        (7429, 13),  # past the bound the finiteness test decides
        (10**30, 13),  # far past the table
    ]:
        assert bound(st5, table_100k, room) == want, room
    # with one prime left the run is the prime itself
    st537 = absorb_chain((5, 7, 37), extra=1)  # floor 37, uncapped bound 1297
    for room, want in [(40, 37), (41, 41), (42, 41), (1296, 1291), (1297, 1297), (10**30, 1297)]:
        assert bound(st537, table_100k, room) == want, room
    # the uncapped scan outgrows this table (test_finiteness_bound_exhaustion);
    # a room short of the run of 13 needs only the tails of 5, 7 and 11
    tiny = build_prime_table(20)
    assert bound(st5, table_100k) == 13
    assert bound(st5, tiny, 4198) == 11
    assert tiny.limit == 20
    # a room that fits the run of 13 needs the tail after 13, so the table grows
    assert bound(st5, tiny, 4199) == 13
    assert tiny.limit == 80
    # the floor's first run decides even where the uncapped bound is the floor
    at_floor = state((5,), 100, 3, 1, 1)
    assert bound(at_floor, tiny) == 5
    assert bound(at_floor, tiny, 6) == 5
    assert bound(at_floor, tiny, 7) == 5


@pytest.mark.parametrize("config", WALKS.values(), ids=WALKS)
def test_finiteness_cap_is_exact_on_walk_states(monkeypatch, config):
    walk_rooms = {}
    real = phi23.search.finiteness_bound

    def spy(st, i, table, room=None):
        assert table.primes[i] == st.floor, (st, i)
        walk_rooms[st] = room
        return real(st, i, table, room)

    monkeypatch.setattr(phi23.search, "finiteness_bound", spy)
    solve(config)
    assert walk_rooms
    table = build_prime_table(1 << 17)
    for st, walk_room in walk_rooms.items():
        hi = bound(st, table)
        primes, rem = table.primes, st.remaining
        # the runs right after the floor and at and after the uncapped bound,
        # each as a room and one below it
        starts = (index_of(table, st.floor) + 1, index_of(table, hi), index_of(table, hi) + 1)
        runs = [math.prod(primes[j : j + rem]) for j in starts]
        rooms = {*runs, *(r - 1 for r in runs)}
        if walk_room is not None:
            assert walk_room == config.limit // st.prefix_product
            # never above the bound the integer root of the room gave
            assert bound(st, table, walk_room) <= min(hi, integer_root(walk_room, rem))
            rooms.add(walk_room)
        for room in rooms:
            want = min(hi, tight_limit_bound(st, room * st.prefix_product))
            assert bound(st, table, room) == want, (st, room, hi)


# The walks of WALKS and the deepest workload slice; none of them grows the
# walk's table past its initial limit of 4,096.
CROSS_CHECKED = {**WALKS, "k22-1e38": SearchConfig(k_min=22, k_max=22, limit=10**38)}


@pytest.mark.parametrize("config", CROSS_CHECKED.values(), ids=CROSS_CHECKED)
def test_finiteness_bound_matches_the_rolling_scan(monkeypatch, config):
    # every internal node's bound, replayed in walk order on two tables
    # started at 20 so that scans cross grow(): the tail lists and the
    # reference rolling scan agree on every bound and grow their tables
    # alike
    calls = []
    tables = {}
    real = phi23.search.finiteness_bound

    def spy(st, i, table, room=None):
        tables[id(table)] = table
        hi = real(st, i, table, room)
        calls.append((st, i, room, hi))
        return hi

    monkeypatch.setattr(phi23.search, "finiteness_bound", spy)
    solve(config)
    (walk_table,) = tables.values()
    assert walk_table.limit == 1 << 12
    lists, rolling = build_prime_table(20), build_prime_table(20)
    for st, i, room, hi in calls:
        assert finiteness_bound(st, i, lists, room) == rolling_finiteness_bound(st, rolling, room) == hi
        assert lists.limit == rolling.limit, st
    assert lists.limit > 20
    assert list(lists.primes) == list(rolling.primes)


@pytest.mark.parametrize("config", WALKS.values(), ids=WALKS)
def test_gallop_matches_the_linear_scan(monkeypatch, config):
    # every bound of the walk, which the galloping scan took, replayed in
    # walk order through the linear reference scan on a fresh table: the
    # same bound every time, and after the walk the same tail lists
    calls = []
    tables = {}
    real = phi23.search.finiteness_bound

    def spy(st, i, table, room=None):
        tables[id(table)] = table
        m = real(st, i, table, room)
        calls.append((st, i, room, m))
        return m

    monkeypatch.setattr(phi23.search, "finiteness_bound", spy)
    solve(config)
    (walk_table,) = tables.values()
    reference = build_prime_table(walk_table.limit)
    for st, i, room, m in calls:
        assert linear_finiteness_bound(st, i, reference, room) == m, (st, room)
    assert reference.tails.keys() == walk_table.tails.keys()
    for rem, (_, ps) in reference.tails.items():
        assert len(walk_table.tails[rem][1]) == len(ps), rem


def _stored(rem, n):
    """A fresh table whose tail lists for ``rem`` primes hold n entries."""
    table = build_prime_table(1 << 12)
    for _ in range(n):
        table.extend_tail(rem)
    return table


def _gallop_agrees(st, room, n):
    """finiteness_bound, with n tail entries stored, equals the linear scan
    and leaves the lists as long as it does; returns the bound's prime."""
    i = index_of(_stored(1, 0), st.floor)
    table, reference = _stored(st.remaining, n), _stored(st.remaining, n)
    m = finiteness_bound(st, i, table, room)
    assert m == linear_finiteness_bound(st, i, reference, room), (st, room, n)
    assert len(table.tails[st.remaining][1]) == len(reference.tails[st.remaining][1]) == max(n, m + 1)
    return table.primes[m]


# (prefix, alpha, beta, gamma, remaining), room, the bound's prime: [5, 7,
# 37] has one prime left, floor 37 (index 11) and uncapped bound 1297
# (index 210), so its scans gallop; a room of 40 stops them at 37 and one of
# 1296 at 1291.  (100, 3, 1) after 5 fails the finiteness test at its floor.
GALLOP_EDGES = {
    "finiteness-floor": (((5,), 100, 3, 1, 1), None, 5),
    "finiteness-far": (((5, 7, 37), 1296, 1295, 1, 1), None, 1297),
    "room-floor": (((5, 7, 37), 1296, 1295, 1, 1), 40, 37),
    "room-far": (((5, 7, 37), 1296, 1295, 1, 1), 1296, 1291),
}


@pytest.mark.parametrize("stored", ["past", "to-bound", "to-before-bound"])
@pytest.mark.parametrize("edge", GALLOP_EDGES.values(), ids=GALLOP_EDGES)
def test_gallop_edges(edge, stored):
    # A scan that stops at its floor's entry i or far from it, with the
    # finiteness test binding or the room, against lists stored well past
    # the bound, up to it (the bound is the last stored entry) and up to
    # the entry before it (the bound is one past them).
    coefficients, room, want = edge
    m = index_of(build_prime_table(1 << 12), want)
    n = {"past": m + 20, "to-bound": m + 1, "to-before-bound": m}[stored]
    assert _gallop_agrees(state(*coefficients), room, n) == want


def test_gallop_matches_the_linear_scan_at_every_stop():
    # every bound position between the floor and the uncapped bound, by the
    # room, against lists that end well before it, just before, at, just
    # past and well past it
    st537 = absorb_chain((5, 7, 37), extra=1)
    table = build_prime_table(1 << 12)
    i, top = index_of(table, 37), index_of(table, 1297)
    for m in range(i, top + 1):
        room = table.primes[m]
        for n in {0, i, m - 3, m - 1, m, m + 1, m + 2, m + 9, top + 1}:
            assert _gallop_agrees(st537, room, n) == room
    for n in range(top + 3):
        assert _gallop_agrees(st537, None, n) == 1297


# Entries per tail list, by remaining count, after the 1e14 walk: each list
# reaches the furthest bound a node with that many primes left returned.
LISTS_1E14 = {3: 537, 4: 83, 5: 39, 6: 16, 7: 12, 8: 11, 9: 6, 10: 5, 11: 3}


@pytest.mark.parametrize("config", WALKS.values(), ids=WALKS)
def test_opening_windows_are_exact(monkeypatch, config):
    # every tail-list entry a run holds, the window of ``remaining`` primes
    # after a table prime, has the products over those primes on the
    # independent sieve, and each run's lists reach exactly the furthest
    # window its scans test: the one of the bound they return
    tables = {}
    furthest = {}
    real = phi23.search.finiteness_bound

    def spy(st, i, table, room=None):
        tables[id(table)] = table
        m = real(st, i, table, room)
        furthest[st.remaining] = max(furthest.get(st.remaining, m), m)
        return m

    monkeypatch.setattr(phi23.search, "finiteness_bound", spy)
    solve(config)
    (table,) = tables.values()
    primes = simple_sieve(table.limit)
    assert list(table.primes) == primes
    assert table.tails.keys() == furthest.keys()
    for rem, (m1s, ps) in table.tails.items():
        assert len(m1s) == len(ps) == furthest[rem] + 1, rem
        for m, products in enumerate(zip(m1s, ps)):
            tail = primes[m + 1 : m + 1 + rem]
            assert len(tail) == rem
            assert products == (math.prod(p - 1 for p in tail), math.prod(tail)), (rem, m)
    if config is WALKS["limit-1e14"]:
        assert {rem: len(ps) for rem, (_, ps) in table.tails.items()} == LISTS_1E14


def test_opening_window_survives_growth(table_100k):
    # tail-list entries made before grow() read the same after it, and so
    # does every bound scanned from them
    tiny = build_prime_table(20)
    st5 = absorb_chain((5,), extra=3)
    assert bound(st5, tiny, 4198) == 11
    assert tiny.limit == 20
    # the scan opened at the window after 5 (index 2) and stopped at 11's;
    # the lists hold every window up to there
    made = {rem: (m1s[:], ps[:]) for rem, (m1s, ps) in tiny.tails.items()}
    assert made[3][0][2:] == [6 * 10 * 12, 10 * 12 * 16, 12 * 16 * 18]
    assert made[3][1][2:] == [7 * 11 * 13, 11 * 13 * 17, 13 * 17 * 19]
    assert [len(lists) for lists in made[3]] == [5, 5]
    tiny.grow()
    assert tiny.limit == 80
    assert {rem: (m1s[:], ps[:]) for rem, (m1s, ps) in tiny.tails.items()} == made
    for rem, (m1s, ps) in made.items():
        for m, products in enumerate(zip(m1s, ps)):
            tail = tiny.primes[m + 1 : m + 1 + rem]
            assert products == (math.prod(p - 1 for p in tail), math.prod(tail))
    for room in (None, 1000, 4198, 4199, 10**30):
        assert bound(st5, tiny, room) == bound(st5, table_100k, room), room


def _tail_clears(st, tail):
    lhs = st.alpha * math.prod(p - 1 for p in tail)
    rhs = st.beta * math.prod(tail) + st.gamma
    return lhs > rhs


def test_finiteness_bound_is_tight(table_100k):
    primes = [p for p in simple_sieve(300) if p >= 5]
    states = reachable_endgame_states(primes, max_product=500_000, max_len=3)
    rng = random.Random(4242)
    sample = rng.sample(states, 120)
    all_primes = simple_sieve(100_000)
    for st in sample:
        for rem in (1, 2, 3):
            probe = state(st.prefix, st.alpha, st.beta, st.gamma, rem)
            v = bound(probe, table_100k)
            i = all_primes.index(v)
            assert v >= probe.floor
            assert _tail_clears(probe, all_primes[i + 1 : i + 1 + rem])
            if v > probe.floor:
                assert not _tail_clears(probe, all_primes[i : i + rem])


def test_limit_bound_golden():
    # the budget for the product of the remaining primes
    st = absorb_chain((5,), extra=2)
    assert limit_bound(st, 9065) == 9065 // 5 == 1813
    assert limit_bound(root_state(4), 10**10) == 10**10
    st57deep = state((5, 7), 36, 35, 1, 5)
    assert limit_bound(st57deep, 10**14) == 10**14 // 35 == 2_857_142_857_142
    assert limit_bound(root_state(1), 100) == 100
    assert limit_bound(absorb_chain((5, 7, 37), extra=1), 1_679_615) == 1297
    assert limit_bound(absorb_chain((5, 7, 37), extra=1), 1_679_614) == 1296
    assert limit_bound(absorb_chain((5, 7)), 35) == 1
    with pytest.raises(ValueError):
        limit_bound(absorb_chain((5, 7)), 34)


# ---------------------------------------------------------------------------
# Endgames
# ---------------------------------------------------------------------------


def test_endgame_params_golden():
    p5 = endgame_params(absorb_chain((5,)))
    assert (p5.delta, p5.target, p5.residue) == (1, 31, 0)
    p57 = endgame_params(absorb_chain((5, 7)))
    assert (p57.delta, p57.target, p57.residue) == (1, 1261, 0)
    p513 = endgame_params(absorb_chain((5, 13)))
    assert (p513.delta, p513.target, p513.residue) == (7, 4687, 5)
    assert (-72) % 7 == 5
    proot = endgame_params(root_state(2))
    assert (proot.delta, proot.target, proot.residue) == (1, 8, 0)
    # two_prime_solve derives the same target and residue inline: its factor
    # trace walks the divisors of that target from (1, target) up, and
    # rejects on congruence exactly the f1 outside the residue class
    for chain in ((5,), (5, 7), (5, 13), ()):
        st = absorb_chain(chain) if chain else root_state(2)
        params = endgame_params(st)
        trace = []
        two_prime_solve(*two_prime_args(st), trace=trace, strategy="factor")
        assert trace[0][:2] == (1, params.target), chain
        assert all(f1 * f2 == params.target for f1, f2, *_ in trace), chain
        assert all((t[4] == "congruence") == (t[0] % params.delta != params.residue) for t in trace), chain


def test_endgame_identity_random():
    rng = random.Random(99)
    for _ in range(10_000):
        alpha = rng.randrange(2, 10**6)
        beta = rng.randrange(1, alpha)
        gamma = rng.randrange(1, 10**4)
        q = rng.randrange(1, 10**6)
        r = rng.randrange(1, 10**6)
        delta = alpha - beta
        lhs = (delta * q - alpha) * (delta * r - alpha) - (alpha * beta + gamma * delta)
        rhs = delta * (alpha * (q - 1) * (r - 1) - beta * q * r - gamma)
        assert lhs == rhs


def random_endgame_coefficients():
    """1000 seeded (alpha, beta, gamma) of valid states, half with small delta."""
    rng = random.Random(2024)
    states = 0
    while states < 1_000:
        alpha = rng.randrange(3, 2000)
        if states % 2:
            beta = alpha - rng.choice((1, 2, 3, 5))  # small delta hits the class often
            if beta < 1:
                continue
        else:
            beta = rng.randrange(1, alpha)
        if gcd(alpha, beta) != 1:
            continue
        states += 1
        yield alpha, beta, rng.randrange(1, 5)


def test_congruence_filter_is_exact():
    # the residue test must discard exactly the divisors with non-integral
    # q, and the partner f2 must then be integral automatically
    matched = 0
    for alpha, beta, gamma in random_endgame_coefficients():
        delta = alpha - beta
        target = alpha * beta + gamma * delta
        residue = (-alpha) % delta
        for f1 in factorize(target).divisors():
            hits = f1 % delta == residue
            assert hits == ((f1 + alpha) % delta == 0)
            if hits:
                assert (target // f1 + alpha) % delta == 0
                matched += 1
    assert matched > 100


def test_two_prime_golden_after_5():
    st = absorb_chain((5,))
    trace = []
    got = two_prime_solve(*two_prime_args(st), trace=trace)
    assert got == [(7, 37)]
    assert (1, 31, 7, 37, "accepted") in trace


def test_two_prime_golden_after_5_13():
    st = absorb_chain((5, 13))
    counters = SearchCounters()
    trace = []
    got = two_prime_solve(*two_prime_args(st), counters=counters, trace=trace, strategy="factor")
    assert got == []
    # both divisors of 4687 = 43 * 109 sit in the wrong residue class mod 7
    assert counters.prune_congruence == 2
    assert trace == [(1, 4687, None, None, "congruence"), (43, 109, None, None, "congruence")]
    assert 1 % 7 != 5 and 43 % 7 != 5


def test_two_prime_default_strategy():
    # after (5, 13), q in 14..20 all lie past mid = 13: the scan steps the
    # sums q + r in 41..50 by 7, at most 2 steps, not above 4687**(1/4) = 8:
    # scanned, and no divisor of the class 5 mod 7 is met at all
    counters = SearchCounters()
    trace = []
    assert two_prime_solve(*two_prime_args(absorb_chain((5, 13))), counters=counters, trace=trace) == []
    assert trace == []
    assert counters.prune_congruence == 0
    assert (counters.endgame_scan, counters.endgame_factor) == (1, 0)
    # at the root (delta = 1), q in 4..5 holds one q prime to 6, 1 step, not
    # above 8**(1/4) = 1: scanned
    counters = SearchCounters()
    assert two_prime_solve(*two_prime_args(root_state(2)), counters=counters) == [(5, 7)]
    assert (counters.endgame_scan, counters.endgame_factor) == (1, 0)
    # after (5, 7, 37) (delta = 1), the q prime to 6 in 1297..2591 are 432
    # steps, above 1678321**(1/4) = 35: factored
    counters = SearchCounters()
    assert two_prime_solve(*two_prime_args(absorb_chain((5, 7, 37))), counters=counters) == []
    assert (counters.endgame_scan, counters.endgame_factor) == (0, 1)


@pytest.mark.parametrize(
    "args, split, sums_in_range, kept",
    [
        # lo = 18 > mid = 17, and neither sum 43, 44 lies in the class of
        # (alpha - gamma) / alpha modulo delta = 131
        ((1440, 1309, 1, 17, 1309), (18, 17, 21), True, 10**14),
        # lo = 104 > mid = 103, and no integer sum lies in (mid, hi] = (103, 109]
        ((3672, 3605, 1, 103, 3605), (104, 103, 109), False, 10**14),
        # the same kind, closed at 1e14 by the walk's residue gate: the least
        # q*r from 719**2 up in the class of -gamma/beta modulo alpha is
        # 122,314,909, so the least n is b*122,314,909 = 2.16e16, the limit
        # it is kept at
        ((177420672, 176935115, 1, 719, 176935115), (720, 719, 730), False, 176935115 * 122314909),
        # not from the walk: the floor puts lo = 101 far past hi = 5, so mid
        # clips to lo - 1 and the step count is 0, not the -31 q prime to 6
        # that [101, 5] would count, whose square would pass isqrt(8) and
        # choose factoring
        ((3, 2, 2, 100, 1), (101, 100, 5), False, 10**14),
    ],
    ids=["args0-split0-True", "args1-split1-False", "args2-split2-False", "args3-split3-False"],
)
def test_two_prime_zero_step_endgames(monkeypatch, args, split, sums_in_range, kept):
    # endgames of the 1e14 walk (but the last) whose scan has no step: no q
    # to try and no sum of the class to step.  At any limit they return
    # right after their bounds.  The walk's residue gate keeps each at
    # ``kept`` and closes the third at 1e14 and one below ``kept``, before
    # it becomes an endgame call.
    assert _scan_split(args) == split
    for limit in (10**14, kept, kept - 1):
        _assert_strategies_agree(args, limit)
    assert not residue_closes(*args, kept)
    assert residue_closes(*args, 10**14) == residue_closes(*args, kept - 1) == (kept != 10**14)

    def boom(*_):
        raise AssertionError("a scan with no step reached its steps")

    def pow_spy(base, exp, mod):
        # the scan takes no inverse modulo delta with no sum to place in its
        # class
        if mod == args[0] - args[1]:
            boom()
        return pow(base, exp, mod)

    monkeypatch.setattr(phi23.equation, "_square_steps", boom)
    if not sums_in_range:
        monkeypatch.setattr(phi23.equation, "pow", pow_spy, raising=False)
    for limit in (10**14, kept):
        counters = SearchCounters()
        trace = []
        assert two_prime_solve(*args, limit, counters, trace) == []
        assert trace == []
        assert counters == SearchCounters(endgame_scan=1)


def test_two_prime_golden_after_5_7():
    st = absorb_chain((5, 7))
    trace = []
    got = two_prime_solve(*two_prime_args(st), trace=trace)
    assert got == [(37, 1297)]
    assert (1, 1261, 37, 1297, "accepted") in trace
    assert (13, 97, 49, 133, "q_composite") in trace


def test_two_prime_divisor_walk_square_target():
    # target 5*4 + 16*1 = 36: factoring tries every divisor up to and
    # including its square root 6, ascending, each with its cofactor
    args = two_prime_args(state((), 5, 4, 16, 2))
    trace = []
    assert two_prime_solve(*args, trace=trace, strategy="factor") == [(7, 23)]
    assert [t[:2] for t in trace] == [(1, 36), (2, 18), (3, 12), (4, 9), (6, 6)]
    assert trace[-1] == (6, 6, 11, 11, "ordering")
    # the default scans q in 6..11 (2 steps, q = 7 and 11, not above isqrt(36)
    # = 6) and meets only the divisors whose q is prime to 6
    trace = []
    assert two_prime_solve(*args, trace=trace) == [(7, 23)]
    assert [t[:2] for t in trace] == [(2, 18), (6, 6)]
    assert trace[-1] == (6, 6, 11, 11, "ordering")


def test_two_prime_root_pair():
    assert two_prime_solve(*two_prime_args(root_state(2))) == [(5, 7)]
    # the floor is strict: a candidate equal to it is rejected
    trace = []
    assert two_prime_solve(*two_prime_args(state((5,), 3, 2, 2, 2)), trace=trace, strategy="factor") == []
    assert trace == [(1, 8, 4, 11, "floor"), (2, 4, 5, 7, "floor")]


def test_two_prime_limit_boundary():
    st = absorb_chain((5, 7))
    assert two_prime_solve(*two_prime_args(st), limit=1_679_615) == [(37, 1297)]
    assert two_prime_solve(*two_prime_args(st), limit=1_679_614) == []
    assert two_prime_solve(*two_prime_args(st), limit=10**10) == [(37, 1297)]


def test_two_prime_limit_cut_skips_factoring(monkeypatch):
    # The limit closes a two-prime child only at the walk's residue gate,
    # before any divisor is sought.  After (5, 7) (target 1261, prefix
    # product 35, alpha 36) the least q*r above 7**2 in the class of
    # -gamma/beta modulo 36 is 73: the gate closes the endgame below 35*73.
    args = two_prime_args(absorb_chain((5, 7)))
    assert residue_closes(*args, 1_000)
    assert residue_closes(*args, 2_554)
    assert not residue_closes(*args, 2_555)
    # The endgame itself closes nothing on the limit: it factors the target
    # and drops its one pair by the limit verdict.
    counters = SearchCounters()
    trace = []
    assert two_prime_solve(*args, 1_000, counters, trace) == []
    assert counters == SearchCounters(endgame_factor=1)
    assert (1, 1261, 37, 1297, "limit") in trace

    def boom(*_):
        raise AssertionError("a child the gate closes sought divisors")

    # The node (7, 11) of the 1e6 walk, three primes left: its candidates 13
    # and 17 both leave children the gate closes, so neither becomes an
    # endgame call.
    monkeypatch.setattr(phi23.search, "two_prime_solve", boom)
    monkeypatch.setattr(phi23.equation, "factorize", boom)
    node = state((7, 11), 90, 77, 1, 3)
    table = build_prime_table(1 << 12)
    counters = SearchCounters()
    found = []
    phi23.search._solve_last_level(node, index_of(table, 11), 10**6, table, counters, found.append)
    assert found == []
    assert counters == SearchCounters(nodes_expanded=1, prune_limit=2)


@pytest.mark.parametrize(
    "args, limit, past_amgm",
    [
        # the root's target 8, rt = isqrt(8) = 2, delta 1: b*(rt + alpha)**2 = 25
        ((3, 2, 2, 3, 1), 25, False),
        ((3, 2, 2, 3, 1), 24, True),
        # target 39, rt = 6, delta 2: 4 * (6 + 7)**2 = 676 = 2**2 * 169
        ((7, 5, 2, 3, 4), 169, False),
        ((7, 5, 2, 3, 4), 168, True),
        # an endgame of the 1e14 walk whose pairs all have n >= 3.99e14 though
        # target*b < delta**2*limit
        ((75613824, 75548095, 1, 307, 75548095), 10**14, True),
    ],
)
def test_two_prime_limit_precheck_boundary(args, limit, past_amgm):
    # Endgames with no pair under the limit.  ``past_amgm`` marks those past
    # the AM-GM bound, b*(isqrt(target) + alpha)**2 > delta**2*limit, which
    # the endgame does not test: it closes nothing on the limit, so every
    # row seeks its divisors and drops its pairs by the limit verdict.  Of
    # these only the walk's row is closed by the walk's residue gate.
    alpha, beta, gamma, _, b = args
    delta = alpha - beta
    rt = math.isqrt(endgame_params(state((), alpha, beta, gamma, 2)).target)
    assert (b * (rt + alpha) ** 2 > delta**2 * limit) == past_amgm
    reference = [(q, r) for q, r in two_prime_solve(*args) if b * q * r <= limit]
    assert reference == []
    assert residue_closes(*args, limit) == (limit == 10**14)
    counters = SearchCounters()
    assert two_prime_solve(*args, limit, counters) == []
    assert counters.prune_limit == 0
    assert counters.endgame_scan + counters.endgame_factor == 1


def _integer_pairs(alpha, beta, gamma, floor):
    """Every integer pair floor < q < r with alpha(q-1)(r-1) = beta*q*r + gamma:
    each q from floor + 1 up, with r = (gamma + alpha*(q-1)) / (delta*q - alpha)
    where that is an integer, until r <= q (r falls as q grows)."""
    delta = alpha - beta
    pairs = []
    q = floor + 1
    while True:
        num, den = gamma + alpha * (q - 1), delta * q - alpha
        if den > 0:
            if num <= q * den:
                return pairs
            if not num % den:
                pairs.append((q, num // den))
        q += 1


def test_two_prime_limit_precheck_keeps_every_pair_at_tight_limits():
    # On random small coefficients, at the limits b*q*r and b*q*r - 1 of every
    # integer pair, the pairs the walk sees under the limit (none when its
    # residue gate closes the endgame, else the endgame's trace, primes or
    # not) are exactly the brute-force pairs under it: the gate closes no
    # endgame with a pair at its limit.  The residue bound needs a window
    # below alpha, so the floor is also put just under each pair's q.  Both
    # sides keep only the q prime to 6, the only q a scan meets (past a floor
    # >= 3 the others are composite); a floor below 3 is refused.
    rng = random.Random(30)
    under = ("accepted", "q_composite", "r_composite")
    checks = refused = 0
    while checks < 3000:
        alpha = rng.randrange(2, 200)
        beta = rng.randrange(1, alpha)
        if math.gcd(alpha, beta) != 1:
            continue
        gamma = rng.choice((1, 2))
        everything = _integer_pairs(alpha, beta, gamma, 1)
        for floor in {1, rng.randrange(1, 20)} | {q - 1 for q, _ in everything if q > 1}:
            pairs = [(q, r) for q, r in everything if q > floor and q % 2 and q % 3]
            b = rng.choice((1, 5, 35))
            if floor < 3:
                for strategy in ("scan", "factor"):
                    with pytest.raises(ValueError, match="floor"):
                        two_prime_solve(alpha, beta, gamma, floor, b, strategy=strategy)
                refused += 1
                continue
            for q, r in pairs:
                for limit in (b * q * r, b * q * r - 1):
                    trace = []
                    if not residue_closes(alpha, beta, gamma, floor, b, limit):
                        two_prime_solve(alpha, beta, gamma, floor, b, limit, trace=trace)
                    seen = {(t[2], t[3]) for t in trace if t[4] in under and t[2] % 2 and t[2] % 3}
                    assert seen == {p for p in pairs if b * p[0] * p[1] <= limit}, (
                        alpha, beta, gamma, floor, b, limit)
                    checks += 1
    assert refused > 0


def test_two_prime_requires_two_remaining():
    with pytest.raises(ValueError):
        two_prime_solve(*two_prime_args(root_state(3)))


def test_two_prime_matches_linear_scan(prime_set_100k, primes_100k):
    primes = [p for p in simple_sieve(120) if p >= 5]
    states = reachable_endgame_states(primes, max_product=12_000, max_len=3)
    assert len(states) > 80
    bound = 100_000
    for st in states:
        got = {pair for pair in two_prime_solve(*two_prime_args(st)) if pair[1] <= bound}
        want = pair_scan(
            st.alpha, st.beta, st.gamma, st.floor, bound, primes_100k, prime_set_100k
        )
        assert got == want, (st.prefix, st.alpha, st.beta, st.gamma)


def _scan_split(args):
    """(lo, mid, hi) of the scan: q in [lo, mid] are tried one by one, q in
    (mid, hi] through their sum q + r.  hi keeps f1 <= sqrt(target), mid
    keeps f1 <= about sqrt(target / delta); a limit moves neither."""
    alpha, beta, gamma, floor, _ = args
    params = endgame_params(state((), alpha, beta, gamma, 2))
    delta, target = params.delta, params.target
    lo = max(floor + 1, alpha // delta + 1)
    hi = (math.isqrt(target) + alpha) // delta
    mid = max(min((math.isqrt(target // delta) + alpha) // delta, hi), lo - 1)
    return lo, mid, hi


def _assert_strategies_agree(args, limit=None):
    """Scan and factor agree on the endgame two_prime_solve(*args, limit)."""
    runs = {}
    for strategy in ("scan", "factor"):
        counters = SearchCounters()
        trace = []
        got = two_prime_solve(*args, limit, counters, trace, strategy=strategy)
        assert getattr(counters, f"endgame_{strategy}") == 1
        assert counters.prune_limit == 0
        runs[strategy] = got, counters, trace
    (scan, scan_counters, scan_trace), (factor, factor_counters, factor_trace) = runs.values()
    where = (args, limit)
    assert scan == factor, where
    assert scan_counters.prune_congruence == 0, where
    hi = _scan_split(args)[2]
    assert scan_trace == [
        t for t in factor_trace if t[4] not in ("congruence", "floor") and t[2] <= hi and t[2] % 2 and t[2] % 3
    ], where


def test_two_prime_strategies_agree_on_walk_states(monkeypatch):
    # every endgame of the walks, whether the walk solved it from a state or
    # from the coefficients of a child it did not build.  On a limited walk
    # the limit only drops pairs: the limited call returns the unlimited
    # call's pairs with b*q*r <= limit, ticks no prune_limit and reaches a
    # divisor source.  The walk closes the children the residue bound rules
    # out before they become endgame calls (see
    # test_last_level_cut_drops_only_children_without_pairs).
    calls = []
    real = phi23.search.two_prime_solve

    def spy(alpha, beta, gamma, floor, prefix_product, limit=None, counters=None, trace=None, *, strategy=None):
        calls.append(((alpha, beta, gamma, floor, prefix_product), limit))
        return real(alpha, beta, gamma, floor, prefix_product, limit, counters, trace, strategy=strategy)

    monkeypatch.setattr(phi23.search, "two_prime_solve", spy)
    solve(SearchConfig(k_min=1, k_max=6))
    solve(SearchConfig(limit=10**12))
    solve(SearchConfig(limit=10**13))
    solve(SearchConfig(limit=10**14))
    solve(SearchConfig(limit=10**15))
    for args, limit in calls:
        _assert_strategies_agree(args, limit)
        if limit is not None:
            counters = SearchCounters()
            got = two_prime_solve(*args, limit, counters)
            assert got == [(q, r) for q, r in two_prime_solve(*args) if args[4] * q * r <= limit], args
            assert counters.prune_limit == 0, args
            assert counters.endgame_scan + counters.endgame_factor == 1, args
    # every endgame call of the walks, the 1e12 to 1e15 ones included,
    # reaches a divisor source
    assert len(calls) == 2704
    for alpha, beta, gamma in random_endgame_coefficients():
        _assert_strategies_agree((alpha, beta, gamma, 3, 1))
    # the cases of test_two_prime_strategy_edges
    _assert_strategies_agree(two_prime_args(state((), 5, 4, 16, 2)))
    _assert_strategies_agree(two_prime_args(state((4,), 3, 2, 2, 2)))
    for limit in (1_679_615, 1_679_614):
        _assert_strategies_agree(two_prime_args(absorb_chain((5, 7))), limit)
    for limit in (143, 142):
        _assert_strategies_agree(two_prime_args(state((), 2, 1, 97, 2)), limit)


def test_two_prime_strategies_agree_on_k7_endgames():
    """Scan and factor agree on 40 endgames of the unbounded k = 7 walk.

    Their targets have 57 to 86 bits.  ``data/endgames_k7.json`` holds a
    fixed-seed sample of the walk's 272,297 endgame states, made with

        states = []
        search._solve_last_level = lambda st, i, limit, table, counters, emit: states.extend(
            child for child, _ in search._expand_node(st, i, limit, table, counters))
        search._dfs(root_state(7), 1, None, build_prime_table(1 << 17), SearchCounters(), None)
        sample = sorted(random.Random(7).sample(states, 40), key=lambda s: s.prefix)
    """
    rows = json.loads((Path(__file__).parent / "data" / "endgames_k7.json").read_text())
    assert len(rows) == 40
    for row in rows:
        st = state(row["prefix"], row["alpha"], row["beta"], row["gamma"], 2)
        _assert_strategies_agree(two_prime_args(st))


def test_every_primality_argument_is_in_the_proven_range(monkeypatch):
    """is_prime is exact below _MR_LADDER's last bound, about 3.3e24: the
    walks of k = 1..6 and to 1e14 and the 40 k = 7 endgames under the
    default rule test nothing larger, factoring included (42 bits at most).
    Forcing "factor" on those endgames does: an 86-bit cofactor."""
    seen = []
    real = phi23.arith.is_prime

    def spy(n):
        seen.append(n)
        return real(n)

    monkeypatch.setattr(phi23.equation, "is_prime", spy)
    monkeypatch.setattr(phi23.arith, "is_prime", spy)
    counters = SearchCounters()
    solve(WALKS["k1-6"], counters)
    solve(WALKS["limit-1e14"], counters)
    assert counters.endgame_factor > 0
    rows = json.loads((Path(__file__).parent / "data" / "endgames_k7.json").read_text())
    for row in rows:
        st = state(row["prefix"], row["alpha"], row["beta"], row["gamma"], 2)
        two_prime_solve(*two_prime_args(st))
    assert seen
    assert max(seen) < phi23.arith._MR_LADDER[-1][0]


@pytest.mark.parametrize(
    "coefficients, limit, split, qs",
    [
        # Every row's scan meets only the q prime to 6; the factor trace also
        # holds the q divisible by 2 or 3, which are composite past a floor >= 3.
        # delta = 1 (the root): every q is scanned, none is left to the sums;
        # the pair at q = 4 is skipped
        ((3, 2, 2), None, (4, 5, 5), [5]),
        # target 39 = 1 * 39 = 3 * 13, delta 2: a pair at q = mid
        ((7, 5, 2), None, (4, 5, 6), [5]),
        # target 55 = 5 * 11, delta 2: the pair at q = mid = 4 (skipped) has the
        # sum 11, and the sum of q = 5 lies strictly between 10 and 11: no sum to step
        ((3, 1, 26), None, (4, 4, 5), []),
        # target 136 = 8 * 17, delta 3: a pair at q = mid + 1, the first q found by its sum
        ((13, 10, 2), None, (5, 6, 8), [5, 7]),
        # target 91 = 7 * 13, delta 3: pairs at q = 4 and q = hi = 6, both skipped,
        # the one at q = hi after its sum is stepped
        ((11, 8, 1), None, (4, 5, 6), []),
        # target 1120 = 2**5 * 5 * 7, delta 3: q = 11 and 13 scanned (9 and 10
        # skipped), then q = 15 (skipped) and q = 19 through their sums 42 and
        # 39, one step apart
        ((25, 22, 190), None, (9, 14, 19), [11, 13, 19]),
        # square target 121, delta 4: f1 = f2 = 11 at q = hi = 6, found by its
        # sum and skipped
        ((13, 9, 1), None, (4, 4, 6), []),
        # target 8 and b = 1 at limit 25: the endgame scans its whole range,
        # whose pairs (4, 11) (skipped) and (5, 7) break the limit
        ((3, 2, 2), 25, (4, 5, 5), [5]),
        # the two rows above whose pair at q = hi is skipped, with q = hi = 5:
        # target 63 = 7 * 9, delta 2, a pair found by its sum
        ((3, 1, 30), None, (4, 4, 5), [5]),
        # square target 49, delta 2: f1 = f2 = 7, found by its sum
        ((3, 1, 23), None, (4, 3, 5), [5]),
    ],
)
def test_two_prime_scan_split_edges(coefficients, limit, split, qs):
    st = state((), *coefficients, 2)
    assert _scan_split(two_prime_args(st)) == split
    trace = []
    two_prime_solve(*two_prime_args(st), limit, trace=trace, strategy="scan")
    assert [t[2] for t in trace] == qs
    _assert_strategies_agree(two_prime_args(st), limit)


@pytest.mark.parametrize("strategy", ["scan", "factor"])
def test_two_prime_strategy_matches_linear_scan(primes_100k, prime_set_100k, strategy):
    # the states and the brute-force ground truth of acceptance criterion 6c
    pool = [p for p in simple_sieve(150) if p >= 5]
    states = reachable_endgame_states(pool, max_product=1_000_000, max_len=4)
    states += [absorb_chain((p,)) for p in simple_sieve(1000) if p >= 5]
    bound = 100_000
    for st in states:
        got = {pair for pair in two_prime_solve(*two_prime_args(st), strategy=strategy) if pair[1] <= bound}
        want = pair_scan(st.alpha, st.beta, st.gamma, st.floor, bound, primes_100k, prime_set_100k)
        assert got == want, (st.prefix, st.alpha, st.beta, st.gamma)


@pytest.mark.parametrize("strategy", ["scan", "factor"])
def test_two_prime_strategy_edges(strategy):
    # square target 36: f1 = 1 at the first q of the range, f1 = f2 = 6 at
    # its last; the scan skips q = 6, 8 and 9, which are not prime to 6
    trace = []
    assert two_prime_solve(*two_prime_args(state((), 5, 4, 16, 2)), trace=trace, strategy=strategy) == [(7, 23)]
    if strategy == "factor":
        assert trace[0] == (1, 36, 6, 41, "q_composite")
        assert [t[:2] for t in trace] == [(1, 36), (2, 18), (3, 12), (4, 9), (6, 6)]
    else:
        assert [t[:2] for t in trace] == [(2, 18), (6, 6)]
    assert trace[-1] == (6, 6, 11, 11, "ordering")
    # q = floor + 1 is the first q tried; q = floor is not (the root's
    # equation behind a floor of 4, which no prime prefix can give)
    assert two_prime_solve(*two_prime_args(state((4,), 3, 2, 2, 2)), strategy=strategy) == [(5, 7)]
    assert two_prime_solve(*two_prime_args(state((5,), 3, 2, 2, 2)), strategy=strategy) == []
    # b*q*r == limit exactly: 35 * 37 * 1297
    st = absorb_chain((5, 7))
    assert two_prime_solve(*two_prime_args(st), limit=1_679_615, strategy=strategy) == [(37, 1297)]
    assert two_prime_solve(*two_prime_args(st), limit=1_679_614, strategy=strategy) == []
    # the same with q at the top of the limit's range: 11 * 13 = 143, 11 = isqrt(143)
    twin = state((), 2, 1, 97, 2)  # target 99 = 9 * 11
    assert two_prime_solve(*two_prime_args(twin), limit=143, strategy=strategy) == [(11, 13)]
    assert two_prime_solve(*two_prime_args(twin), limit=142, strategy=strategy) == []
    # two pairs each, by ascending q without a sort (floor 3, prefix product 1):
    # targets 65 = 1 * 65 = 5 * 13 and 35 = 1 * 35 = 5 * 7, both pairs tried q;
    # then a tried q and one found by its sum (split (5, 6, 8)), and two found
    # by their sums (split (20, 28, 38)), which the scan meets by descending sum
    assert two_prime_solve(9, 7, 1, 3, 1, strategy=strategy) == [(5, 37), (7, 11)]
    assert two_prime_solve(6, 5, 5, 3, 1, strategy=strategy) == [(7, 41), (11, 13)]
    assert two_prime_solve(13, 10, 10, 3, 1, strategy=strategy) == [(5, 31), (7, 11)]
    assert two_prime_solve(97, 92, 116, 3, 1, strategy=strategy) == [(29, 59), (37, 41)]


def test_prime_to_6_counts_the_scanned_q():
    # the default rule's count of the q side's steps, against the brute force
    # on every range the scan can meet: lo = floor + 1 >= 4, and mid >= lo - 1
    for mid in range(3, 80):
        for lo in range(4, mid + 2):
            assert _prime_to_6(lo, mid) == sum(1 for q in range(lo, mid + 1) if q % 2 and q % 3), (lo, mid)


@pytest.mark.parametrize("strategy", ["scan", "factor", None])
def test_two_prime_refuses_a_floor_below_3(strategy):
    # the scan skips every q divisible by 2 or 3, which is composite only for
    # q >= 4.  Past floor 2 the prime pair (3, 5) of 2(q-1)(r-1) = q*r + 1
    # would be lost without a word, so both sources refuse a floor below 3.
    assert _integer_pairs(2, 1, 1, 2) == [(3, 5)]
    for floor in (2, 1, 0):
        with pytest.raises(ValueError, match="floor"):
            two_prime_solve(2, 1, 1, floor, 1, strategy=strategy)
    assert two_prime_solve(2, 1, 1, 3, 1, strategy=strategy) == []
    assert two_prime_solve(3, 2, 2, 3, 1, strategy=strategy) == [(5, 7)]


def test_two_prime_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        two_prime_solve(*two_prime_args(root_state(2)), strategy="sieve")


def test_square_steps_matches_the_plain_root_test():
    """The residue sieve of the scan's sum side keeps exactly the j that the
    plain root test keeps, on seeded quadratics of the endgame's shape
    (delta**2 * j + c1) * j + c0 with c1 even and no negative value."""

    def plain(delta, c1, c0, n):
        c2 = delta * delta
        return [j for j in range(n) if math.isqrt(v := (c2 * j + c1) * j + c0) ** 2 == v]

    def check(delta, c1, c0, n):
        got = _square_steps(delta, c1, c0, n)
        assert got == plain(delta, c1, c0, n), (delta, c1, c0, n)
        return got

    rng = random.Random(12)
    # delta prime to every modulus, sharing 3 with 9 but not dividing it,
    # and a multiple of each modulus
    deltas = [1, 2, 19, 3 * 19, 2**19 + 21] + [m * rng.randrange(1, 10**6) for m in SIEVE_MODULI]
    # 0 and 1, each modulus and its neighbours, and spans where every modulus runs
    ns = sorted({0, 1, 2} | {m + d for m in SIEVE_MODULI for d in (-1, 0, 1)} | {100, 1000})
    for delta in deltas:
        for n in ns:
            for a in (rng.randrange(100), rng.randrange(2**40)):
                # a square at j = 0 and one at j = n - 1: v(0) = a*a, and
                # v(n - 1) = (a + (n - 1)*t)**2, with t = delta (mod 2) so c1 is even
                t = delta + 2 * rng.randrange(100)
                got = check(delta, 2 * a * t + (n - 1) * (t * t - delta * delta), a * a, n)
                if n:
                    assert got[0] == 0 and got[-1] == n - 1
                # every j a square: v = (delta*j - a)**2
                assert check(delta, -2 * delta * a, a * a, n) == list(range(n))
            # c1 of either sign, c0 large enough that v >= 0 for every real j
            c1 = 2 * rng.randrange(-(2**40), 2**40)
            check(delta, c1, -(-c1 * c1 // (4 * delta * delta)) + rng.randrange(1000), n)


def test_pruned_branch_really_has_no_solutions():
    # absorbing 11 after 5 prunes on gcd; confirm by brute force that the
    # unnormalized residual 60(q-1)(r-1) = 55qr + 1 has no prime solutions
    primes_10k = simple_sieve(10_000)
    pset = set(primes_10k)
    assert pair_scan(60, 55, 1, 11, 10_000, primes_10k, pset) == set()
    assert literal_pairs(60, 55, 1, 11, simple_sieve(1_500)) == set()


def test_one_prime_golden_chain():
    assert one_prime_solve(root_state(1)) == [5]
    # the floor is strict: the root's quotient 5 behind a floor of 5
    assert one_prime_solve(state((5,), 3, 2, 2, 1)) == []
    assert one_prime_solve(absorb_chain((5,), extra=1)) == [7]
    assert one_prime_solve(absorb_chain((5, 7), extra=1)) == [37]
    assert one_prime_solve(absorb_chain((5, 7, 37), extra=1)) == [1297]


def test_one_prime_limit():
    st = absorb_chain((5, 7, 37), extra=1)
    assert one_prime_solve(st, limit=1_679_615) == [1297]
    assert one_prime_solve(st, limit=1_679_614) == []


def test_one_prime_rejections():
    # 73/7 is not an integer
    assert one_prime_solve(state((5, 13), 72, 65, 1, 1)) == []
    # quotient 9 is composite
    assert one_prime_solve(state((), 5, 1, 31, 1)) == []
    assert one_prime_solve(state((11,), 9, 7, 49, 1)) == [29]


def test_one_prime_requires_one_remaining():
    with pytest.raises(ValueError):
        one_prime_solve(root_state(2))
