"""Acceptance suite: one test per contract criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s``; the
per-test PASSED/FAILED column of ``pytest -v`` mirrors it) and enforces
the stated time budget where the criterion has one.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from helpers import (
    absorb_chain,
    brute_force_k,
    endgame_params,
    pair_scan,
    reachable_endgame_states,
    simple_sieve,
)
from phi23.arith import build_prime_table, factorize, is_prime
from phi23.cli import main as cli_main
from phi23.equation import Pruned, absorb_prime, root_state, two_prime_args, two_prime_solve
from phi23.search import (
    SearchConfig,
    SearchCounters,
    search_exact_k,
    solve,
    steinerberger_relevance,
)

KNOWN_TEXT_LINES = [
    "n=5 k=1 factors=[5] relevance=yes",
    "n=35 k=2 factors=[5,7] relevance=yes",
    "n=1295 k=3 factors=[5,7,37] relevance=no",
    "n=1679615 k=4 factors=[5,7,37,1297] relevance=no",
]


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {label}: PASS")


def run_cli(capsys, *args) -> tuple[int, str]:
    code = cli_main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_exact_k_solutions_under_10s(capsys):
    with criterion("1 exact-k solutions for k=1..4, single worker, <10s"):
        started = time.monotonic()
        code, out = run_cli(
            capsys, "search", "--k-min", "1", "--k-max", "4", "--threads", "1"
        )
        assert code == 0
        assert out.splitlines() == KNOWN_TEXT_LINES
        lines = []
        for k in range(1, 5):
            code, out = run_cli(capsys, "search", "--k", str(k), "--threads", "1")
            assert code == 0
            lines.extend(out.splitlines())
        elapsed = time.monotonic() - started
        assert lines == KNOWN_TEXT_LINES
        assert elapsed < 10, f"took {elapsed:.1f}s"


def test_criterion_2_k5_k6_exhausted_empty_under_600s(capsys):
    with criterion("2 k=5 and k=6 searches prove emptiness, <600s"):
        started = time.monotonic()
        for k in ("5", "6"):
            code, out = run_cli(capsys, "search", "--k", k, "--threads", "1")
            assert code == 0
            assert out == ""
        assert search_exact_k(5) == []
        assert search_exact_k(6) == []
        elapsed = time.monotonic() - started
        assert elapsed < 600, f"took {elapsed:.1f}s"


def test_criterion_3_bounded_1e10_under_3600s(capsys):
    with criterion("3 bounded search k<=12 up to 1e10 finds exactly four, <3600s"):
        started = time.monotonic()
        code, out = run_cli(
            capsys,
            "search", "--k-min", "1", "--k-max", "12", "--limit", "1e10",
            "--threads", "1", "--format", "json", "--stats",
        )
        elapsed = time.monotonic() - started
        assert code == 0
        lines = out.splitlines()
        rows = [json.loads(line) for line in lines[:-1]]
        assert [row["n"] for row in rows] == [5, 35, 1295, 1679615]
        assert [tuple(row["factors"]) for row in rows] == [
            (5,), (5, 7), (5, 7, 37), (5, 7, 37, 1297),
        ]
        report = json.loads(lines[-1])["report"]
        assert report["solutions"] == 4
        assert report["counters"]["prune_limit"] > 0
        assert elapsed < 3600, f"took {elapsed:.1f}s"


def test_criterion_4_oracle_scan_matches_solver_under_60s(capsys):
    with criterion("4 brute-force scan to 1e7 equals solver output, <60s"):
        started = time.monotonic()
        code_scan, out_scan = run_cli(capsys, "scan", "--limit", "1e7")
        elapsed = time.monotonic() - started
        assert code_scan == 0
        code_search, out_search = run_cli(
            capsys, "search", "--limit", "1e7", "--threads", "1"
        )
        assert code_search == 0
        assert out_scan == out_search
        assert out_scan.splitlines() == KNOWN_TEXT_LINES
        assert elapsed < 60, f"scan took {elapsed:.1f}s"


def test_criterion_5_golden_internal_vectors():
    with criterion("5 golden vectors: gcd prune, residue-filtered endgame, mixed endgame"):
        # (a) absorbing 11 after 5 dies with gcd evidence (60, 55) -> 5
        st5 = absorb_prime(root_state(4), 5)
        pruned = absorb_prime(st5, 11)
        assert isinstance(pruned, Pruned)
        assert (pruned.alpha, pruned.beta, pruned.gcd) == (60, 55, 5)

        # (b) prefix [5,13]: target 4687 = 43*109, residue 5 mod 7; both
        # divisors 1 and 43 land in class 1, so everything is filtered
        st513 = absorb_prime(absorb_prime(root_state(4), 5), 13)
        params = endgame_params(st513)
        assert (params.delta, params.target, params.residue) == (7, 4687, 5)
        assert dict(factorize(4687).factors) == {43: 1, 109: 1}
        counters = SearchCounters()
        trace = []
        assert two_prime_solve(*two_prime_args(st513), counters=counters, trace=trace, strategy="factor") == []
        assert counters.prune_congruence == 2
        assert [t[4] for t in trace] == ["congruence", "congruence"]

        # (c) prefix [5,7]: target 1261 = 13*97; (1, 1261) maps to the
        # accepted pair (37, 1297), (13, 97) maps to composite 49
        st57 = absorb_prime(absorb_prime(root_state(4), 5), 7)
        params57 = endgame_params(st57)
        assert (params57.delta, params57.target) == (1, 1261)
        trace57 = []
        got = two_prime_solve(*two_prime_args(st57), trace=trace57)
        assert got == [(37, 1297)]
        assert (1, 1261, 37, 1297, "accepted") in trace57
        assert (13, 97, 49, 133, "q_composite") in trace57


def test_criterion_6a_factorize_roundtrip_100k_random():
    with criterion("6a factorize round-trips 100000 random values below 2^60"):
        rng = random.Random(0xA5A5A5)
        for _ in range(100_000):
            n = rng.randrange(1, 1 << 60)
            f = factorize(n)
            back = 1
            last = 1
            for p, e in f.factors:
                assert p > last and e >= 1
                assert is_prime(p)
                back *= p**e
                last = p
            assert back == n


def test_criterion_6b_primality_exhaustive_to_1e6():
    with criterion("6b is_prime agrees with a sieve for every n <= 1e6"):
        limit = 1_000_000
        flags = bytearray(limit + 1)
        for p in simple_sieve(limit):
            flags[p] = 1
        for n in range(limit + 1):
            assert is_prime(n) == bool(flags[n]), n


def test_criterion_6c_endgame_matches_linear_scan(primes_100k, prime_set_100k):
    with criterion("6c endgame equals linear-scan brute force on reachable states"):
        pool = [p for p in simple_sieve(150) if p >= 5]
        states = reachable_endgame_states(pool, max_product=1_000_000, max_len=4)
        assert len(states) > 300
        for p in simple_sieve(1000):
            if p >= 5:
                states.append(absorb_chain((p,)))
        bound = 100_000
        for st in states:
            got = {pair for pair in two_prime_solve(*two_prime_args(st)) if pair[1] <= bound}
            want = pair_scan(
                st.alpha, st.beta, st.gamma, st.floor, bound,
                primes_100k, prime_set_100k,
            )
            assert got == want, (st.prefix, st.alpha, st.beta, st.gamma)


def test_criterion_6d_prune_soundness_vs_brute_force():
    with criterion("6d pruned search equals prune-free enumeration for k <= 3"):
        pool = [p for p in simple_sieve(100) if p >= 5]
        for k in (1, 2, 3):
            want = brute_force_k(k, pool)
            got = {s.factors for s in search_exact_k(k) if s.factors[-1] <= 100}
            assert got == want, k


def test_criterion_6e_worker_count_invariance(capsys):
    with criterion("6e results are identical across 1, 2, and 4 workers"):
        outputs = set()
        counter_dicts = []
        for threads in (1, 2, 4):
            code, out = run_cli(
                capsys, "search", "--limit", "2000000", "--threads", str(threads)
            )
            assert code == 0
            outputs.add(out)
            counters = SearchCounters()
            config = SearchConfig(k_min=1, k_max=6, limit=2_000_000, threads=threads)
            sols = solve(config, counters)
            assert [s.n for s in sols] == [5, 35, 1295, 1679615]
            counter_dicts.append(counters.as_dict())
        assert len(outputs) == 1
        assert counter_dicts[0] == counter_dicts[1] == counter_dicts[2]


def test_criterion_7_solution_invariants():
    with criterion("7 every reported solution passes the structural invariants"):
        solutions = solve(SearchConfig(k_max=12, limit=10**10))
        for k in range(1, 7):
            solutions.extend(search_exact_k(k))
        assert len(solutions) == 8  # four bounded + the same four unbounded
        for s in solutions:
            factors = s.factors
            n = 1
            tot = 1
            for q in factors:
                assert q >= 5
                assert is_prime(q)
                n *= q
                tot *= q - 1
            assert n == s.n
            assert s.k == len(factors)
            assert 3 * tot == 2 * n + 2
            assert n % 6 == 5
            assert list(factors) == sorted(set(factors)), "square-free and ascending"
            f = factorize(n)
            assert f.is_square_free
            assert tuple(p for p, _ in f.factors) == factors
            for i, p in enumerate(factors):
                for j, r in enumerate(factors):
                    if i != j:
                        assert (r - 1) % p != 0, (p, r)
            assert steinerberger_relevance(s) == (s.n in (5, 35))
