"""Tests for the command line interface: output shapes and exit codes."""

import argparse
import json
import re
import time
from itertools import count

import pytest

import phi23.arith
import phi23.cli
import phi23.equation
import phi23.oracle
import phi23.search
from helpers import deadline
from phi23.arith import FactoringError, SieveCapError, is_prime
from phi23.cli import main

KNOWN_TEXT_LINES = [
    "n=5 k=1 factors=[5] relevance=yes",
    "n=35 k=2 factors=[5,7] relevance=yes",
    "n=1295 k=3 factors=[5,7,37] relevance=no",
    "n=1679615 k=4 factors=[5,7,37,1297] relevance=no",
]


def give_up(n):
    """A factorize that always fails."""
    raise FactoringError(n)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_search_exact_k_text(capsys):
    code, out, err = run_cli(capsys, "search", "--k", "4", "--threads", "1")
    assert code == 0
    assert out.splitlines() == [KNOWN_TEXT_LINES[3]]


def test_search_k_range_text(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--k-min", "1", "--k-max", "4", "--threads", "1"
    )
    assert code == 0
    assert out.splitlines() == KNOWN_TEXT_LINES


def test_search_json_lines(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--k-min", "1", "--k-max", "4", "--threads", "1",
        "--format", "json",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["n"] for row in rows] == [5, 35, 1295, 1679615]
    assert [row["relevance"] for row in rows] == [True, True, False, False]
    for row in rows:
        prod = 1
        for p in row["factors"]:
            prod *= p
        assert prod == row["n"]
        assert row["k"] == len(row["factors"])


def test_search_stats_json(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--limit", "1e7", "--threads", "1",
        "--format", "json", "--stats",
    )
    assert code == 0
    lines = out.splitlines()
    report = json.loads(lines[-1])["report"]
    assert report["command"] == "search"
    assert report["limit"] == 10**7
    assert report["solutions"] == 4
    assert report["threads"] == 1
    assert report["wall_time_sec"] >= 0
    assert set(report["counters"]) == {
        "nodes_expanded",
        "prune_limit",
        "prune_corollary",
        "prune_congruence",
        "endgame_scan",
        "endgame_factor",
    }
    assert report["counters"]["nodes_expanded"] > 0


def test_search_stats_text(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--k", "2", "--threads", "1", "--stats"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == KNOWN_TEXT_LINES[1]
    assert lines[1].startswith("# search ")
    assert lines[2].startswith("# ")
    assert "nodes_expanded=" in lines[2]


def test_search_stats_layout(capsys):
    # the exact report lines and key order, wall time masked; perfbench's
    # runner reads report.counters from the last JSON line
    argv = ["search", "--k", "3", "--threads", "1", "--stats"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert re.sub(r"wall_time_sec=\d+\.\d{3}$", "wall_time_sec=*", out, flags=re.M).splitlines() == [
        KNOWN_TEXT_LINES[2],
        "# search k_min=3 k_max=3 limit=None threads=1 solutions=1 wall_time_sec=*",
        "# nodes_expanded=2 prune_limit=0 prune_corollary=0 prune_congruence=0 "
        "endgame_scan=1 endgame_factor=0",
    ]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"n": 1295, "k": 3, "factors": [5, 7, 37], "relevance": False}
    last = json.loads(lines[1])
    assert list(last) == ["report"]
    report = last["report"]
    assert list(report) == [
        "command", "k_min", "k_max", "limit", "threads", "solutions", "wall_time_sec", "counters",
    ]
    assert isinstance(report.pop("wall_time_sec"), float)
    assert report == {
        "command": "search",
        "k_min": 3,
        "k_max": 3,
        "limit": None,
        "threads": 1,
        "solutions": 1,
        "counters": {
            "nodes_expanded": 2,
            "prune_limit": 0,
            "prune_corollary": 0,
            "prune_congruence": 0,
            "endgame_scan": 1,
            "endgame_factor": 0,
        },
    }
    assert list(report["counters"]) == list(phi23.search.SearchCounters().as_dict())


def test_search_scientific_notation_limit(capsys):
    code_a, out_a, _ = run_cli(capsys, "search", "--limit", "1e7", "--threads", "1")
    code_b, out_b, _ = run_cli(capsys, "search", "--limit", "10000000", "--threads", "1")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.splitlines() == KNOWN_TEXT_LINES


def test_search_small_scientific_limit(capsys):
    code, out, _ = run_cli(capsys, "search", "--limit", "1.5e1", "--threads", "1")
    assert code == 0
    assert out.splitlines() == [KNOWN_TEXT_LINES[0]]


def test_search_huge_limit_small_k(capsys):
    # the root's limit bound is the cube root of 1e80, far from its float estimate
    code, out, _ = run_cli(capsys, "search", "--k", "3", "--limit", "1e80", "--threads", "1")
    assert code == 0
    assert out.splitlines() == [KNOWN_TEXT_LINES[2]]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_search_empty_result(capsys, monkeypatch, threads):
    # --limit 4 admits no k, so a two-worker run has no task to hand out
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    with deadline(60):
        for args in (("--k", "5"), ("--limit", "4")):
            code, out, _ = run_cli(capsys, "search", *args, "--threads", threads)
            assert (code, out) == (0, ""), args


def test_search_threads_do_not_change_output(capsys):
    outputs = set()
    for threads in ("1", "2", "3"):
        code, out, _ = run_cli(
            capsys, "search", "--limit", "2000000", "--threads", threads
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_search_bounded_beyond_k6(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--k-min", "5", "--k-max", "9", "--limit", "1e8",
        "--threads", "1",
    )
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_search_k_min_above_limit_cap(capsys, monkeypatch, threads):
    # 1e10 admits at most k = 8, so k >= 9 has nothing to report, and a
    # two-worker run has no task to hand out
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    with deadline(60):
        code, out, err = run_cli(
            capsys, "search", "--k-min", "9", "--limit", "1e10", "--threads", threads
        )
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("k_arg, k_min", [("--k-min=9", 9), ("--k-max=12", 1)])
def test_search_stats_report_the_searched_k_range(capsys, k_arg, k_min):
    # 1e10 admits at most k = 8, whatever k range was asked for
    code, out, _ = run_cli(
        capsys, "search", k_arg, "--limit", "1e10", "--threads", "1",
        "--format", "json", "--stats",
    )
    assert code == 0
    report = json.loads(out.splitlines()[-1])["report"]
    assert (report["k_min"], report["k_max"]) == (k_min, 8)


def test_search_k_min_beyond_unbounded_cap(capsys):
    code, out, err = run_cli(capsys, "search", "--k-min", "7")
    assert (code, out) == (2, "")
    assert "k <= 6" in err


def test_search_oversized_limit_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "search", "--limit", "1e250")
    assert (code, out) == (2, "")
    assert err.startswith("error: limit ")
    assert "beyond any supported search size" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [("search", "--limit", "1e1000000"), ("search", "--limit", "1e100000"), ("check", "1e5000")],
)
def test_counts_past_the_digit_cap_are_usage_errors(capsys, args):
    # refused before the int conversion, whose time is quadratic in the
    # digits, and before a count too long for str() is printed
    started = time.monotonic()
    code, out, err = run_cli(capsys, *args)
    assert time.monotonic() - started < 1.0
    assert (code, out) == (2, "")
    assert err.endswith(": a count has at most 4300 digits\n"), err
    assert "Traceback" not in err


def test_scan_text_matches_search(capsys):
    code_scan, out_scan, _ = run_cli(capsys, "scan", "--limit", "1e5")
    code_search, out_search, _ = run_cli(
        capsys, "search", "--limit", "1e5", "--threads", "1"
    )
    assert code_scan == code_search == 0
    assert out_scan == out_search
    assert out_scan.splitlines() == KNOWN_TEXT_LINES[:3]


def test_scan_small_limits(capsys):
    code, out, _ = run_cli(capsys, "scan", "--limit", "2000")
    assert code == 0
    assert out.splitlines() == KNOWN_TEXT_LINES[:3]
    code, out, _ = run_cli(capsys, "scan", "--limit", "4")
    assert code == 0
    assert out == ""


def test_scan_json(capsys):
    code, out, _ = run_cli(capsys, "scan", "--limit", "2e6", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["n"] for row in rows] == [5, 35, 1295, 1679615]
    for row in rows:
        prod = 1
        for p in row["factors"]:
            prod *= p
        assert prod == row["n"]


def test_check_solution(capsys):
    code, out, _ = run_cli(capsys, "check", "35")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n = 35 = 5 * 7"
    assert lines[1] == "phi(n) = 24"
    assert lines[2] == "solution: yes"
    assert lines[3] == "square-free: yes"
    assert lines[4] == "n mod 6 = 5"
    assert lines[5] == "relevance: yes ((4n+1)/3 = 47 is prime)"


def test_check_big_solution(capsys):
    code, out, _ = run_cli(capsys, "check", "1679615")
    assert code == 0
    assert "n = 1679615 = 5 * 7 * 37 * 1297" in out
    assert "solution: yes" in out
    assert "relevance: no ((4n+1)/3 = 2239487 is composite)" in out


def test_check_non_solution(capsys):
    code, out, _ = run_cli(capsys, "check", "36")
    assert code == 1
    assert "n = 36 = 2^2 * 3^2" in out
    assert "solution: no" in out
    assert "square-free: no" in out
    assert "relevance: no ((4n+1)/3 is not an integer)" in out


def test_check_one(capsys):
    code, out, _ = run_cli(capsys, "check", "1")
    assert code == 1
    assert out.splitlines()[0] == "n = 1"


def test_usage_errors(capsys):
    cases = [
        ("search", "--k", "0"),
        ("search", "--k", "7"),
        ("search", "--k", "3", "--k-min", "2"),
        ("search", "--k-max", "7"),
        ("search", "--limit", "1.23e1"),
        ("search", "--limit", "abc"),
        ("search", "--threads", "0"),
        ("scan",),
        ("scan", "--limit", "2.5e8"),
        ("check", "0"),
        ("check", "-5"),
        ("check", "abc"),
        ("bogus",),
        ("search", "--format", "yaml"),
    ]
    for args in cases:
        code = main(list(args))
        capsys.readouterr()
        assert code == 2, args
    assert main([]) == 2
    capsys.readouterr()


def test_usage_error_messages(capsys):
    code, _, err = run_cli(capsys, "search", "--k", "9")
    assert code == 2
    assert "k <= 6" in err
    code, _, err = run_cli(capsys, "scan", "--limit", "2.5e8")
    assert code == 2
    assert "search --limit" in err
    for limit in ("--limit=0", "--limit=-3"):
        code, out, err = run_cli(capsys, "scan", limit)
        assert (code, out) == (2, ""), limit
        assert err.startswith("error: need limit >= 1, got "), (limit, err)


@pytest.mark.parametrize(
    "args, message",
    [
        (("search", "--k", "0"), "need 1 <= k_min <= k_max, got [0, 0]"),
        (("search", "--k-min", "0"), "need 1 <= k_min <= k_max, got [0, None]"),
        (("search", "--k-max", "0"), "need 1 <= k_min <= k_max, got [1, 0]"),
        (("search", "--threads", "0"), "need threads >= 1, got 0"),
        (("scan", "--limit", "0"), "need limit >= 1, got 0"),
        (
            ("scan", "--limit", "2.5e8"),
            "scan limit capped at 200000000 (two words per index); use 'search --limit' beyond that",
        ),
        (("check", "0"), "need n >= 1, got 0"),
    ],
    ids=["k", "k-min", "k-max", "threads", "scan-limit-0", "scan-limit-cap", "check-n-0"],
)
def test_usage_errors_carry_the_owner_message(capsys, args, message):
    # each rule is checked once, where the value is used: SearchConfig for k
    # and threads, totient_sieve for the scan limit, check_single for check's
    # n; the CLI prints its message
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        ("search", "--limit", "inf"),
        ("search", "--limit", "Infinity"),
        ("search", "--limit=-inf"),
        ("search", "--limit", "sNaN"),
        ("search", "--limit", "nan"),
        ("scan", "--limit", "inf"),
        ("check", "inf"),
    ],
)
def test_non_finite_counts_are_usage_errors(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert "not a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("bogus",),
        ("search", "--limit", "inf"),
        ("search", "--limit", "1e1000000"),
        ("search", "--k", "x"),
        ("search", "--format", "yaml"),
        ("check",),
        ("check", "-1e5"),
        ("search", "--limit", "-1e5"),
    ],
)
def test_every_refusal_is_one_error_line(capsys, args):
    # the parser's own refusals too, not only those of the rules' owners
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize(
    "text, value",
    [("1_000", 1000), (" 12 ", 12), ("+7", 7), ("1.5e3", 1500), ("5.", 5), ("\u0661\u0662\u0663", 123)],
)
def test_count_forms(text, value):
    assert phi23.cli._parse_count(text) == value


def test_factoring_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(phi23.equation, "factorize", give_up)
    # the endgame after (5, 7, 37) takes 432 scan steps, the q prime to 6 in
    # [1297, 2591], far above 1678321**(1/4) = 35
    code, out, err = run_cli(capsys, "search", "--k", "5", "--threads", "1")
    assert code == 3
    assert out == ""
    assert "factoring gave up" in err
    assert "the search is incomplete" in err
    assert "branch" in err


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("ks", [("--k", "2"), ("--k-min", "1", "--k-max", "2")], ids=["k2", "k1-2"])
def test_factoring_failure_at_the_k2_root(capsys, monkeypatch, ks, threads):
    # a FactoringError raised by the k = 2 root's own endgame, whose branch is
    # empty.  That endgame scans its target 8 in one step (q = 5) and never
    # factors, so the endgame itself is made to give up on its target.
    monkeypatch.setattr("os.cpu_count", lambda: 2)

    def endgame_gives_up(alpha, beta, gamma, floor, prefix_product, *_):
        assert (alpha, beta, gamma, floor, prefix_product) == (3, 2, 2, 3, 1)
        raise FactoringError(alpha * beta + gamma * (alpha - beta))

    monkeypatch.setattr(phi23.search, "two_prime_solve", endgame_gives_up)
    code, out, err = run_cli(capsys, "search", *ks, "--threads", threads)
    assert (code, out) == (3, "")
    assert err == (
        "error: factoring gave up on 8; the search is incomplete and printed no solutions "
        "(factoring is deterministic, so a rerun gives up at the same branch)\n"
    )


def test_stats_threads_is_the_worker_cap_not_the_processes_started(capsys, monkeypatch, fake_pool):
    # --stats threads= reports SearchConfig.workers, --threads capped at the
    # cores.  solve starts at most one process per task, so this run, whose
    # k = 1 and k = 2 roots are one task each, starts 2 and still reports 64.
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    code, out, err = run_cli(capsys, "search", "--limit", "100", "--threads", "64", "--stats")
    assert (code, err) == (0, "")
    assert out.splitlines()[-2].startswith("# search k_min=1 k_max=2 limit=100 threads=64 solutions=2 ")
    assert fake_pool == [2]


def test_check_factoring_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(phi23.oracle, "factorize", give_up)
    code, out, err = run_cli(capsys, "check", "1295")
    assert (code, out) == (3, "")
    assert err == "error: factoring gave up on 1295; no verdict was reached\n"
    # the real factorize names n too, not the cofactor 10000049000057 it gave up on
    monkeypatch.undo()
    monkeypatch.setattr(phi23.arith, "_RHO_ROUNDS", 0)
    n = 6 * 1_000_003 * 10_000_019
    code, out, err = run_cli(capsys, "check", str(n))
    assert (code, out) == (3, "")
    assert err == f"error: factoring gave up on {n}; no verdict was reached\n"


def test_factoring_failure_exit_code_through_the_pool(capsys, monkeypatch, only_walker):
    # the forked worker inherits the patch and walks every task; the branch
    # error it pickles must unpickle in the parent
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(phi23.equation, "factorize", give_up)
    only_walker("children")
    code, out, err = run_cli(capsys, "search", "--k-min", "2", "--k-max", "5", "--threads", "2")
    assert code == 3
    assert out == ""
    assert "branch" in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sieve_cap_is_a_usage_error(capsys, monkeypatch, only_walker, threads):
    # a walk whose bounds need primes past the sieve cap exits 2 and names
    # a table limit it needed, also when the forked worker is the one that
    # hits it: grown fourfold from 64 to 256, the table cannot grow again
    # below the cap, and the walk needs the first prime past 256
    monkeypatch.setattr(phi23.arith, "_SIEVE_CAP", 1024)
    monkeypatch.setattr(phi23.search, "_INITIAL_TABLE_LIMIT", 64)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    split = []  # k whose tree the parent split into tasks without hitting the cap
    real_make_tasks = phi23.search._make_tasks

    def make_tasks_spy(root, *args):
        tasks = real_make_tasks(root, *args)
        split.append(root.remaining)
        return tasks

    monkeypatch.setattr(phi23.search, "_make_tasks", make_tasks_spy)
    # the named limit never exceeds the need, the next prime past the table
    # (a failed assertion in the forked worker is raised again in this process)
    table_type = phi23.arith.PrimeTable
    real_grow = table_type.grow

    def grow_spy(self):
        need = next(p for p in count(self.limit + 1) if is_prime(p))
        try:
            real_grow(self)
        except SieveCapError as exc:
            assert exc.limit <= need
            raise

    monkeypatch.setattr(table_type, "grow", grow_spy)
    only_walker("children")
    code, out, err = run_cli(capsys, "search", "--limit", "1e12", "--threads", threads)
    assert (code, out) == (2, "")
    assert err == (
        "error: the search needs a prime table up to 257, but the table grows fourfold, to 1024; "
        "the sieve is capped below 1024; no solutions were printed\n"
    )
    assert split == ([] if threads == "1" else list(phi23.search.SearchConfig(limit=10**12).ks))


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # building the parser costs several times what parsing does, so every
    # main call of a process shares one
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    phi23.cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        assert run_cli(capsys, "check", "35")[0] == 0
        assert run_cli(capsys, "search", "--k", "2", "--threads", "1")[1] == KNOWN_TEXT_LINES[1] + "\n"
    finally:
        phi23.cli._build_parser.cache_clear()
    assert built.count("phi23") == 1


def test_run_entry_point_raises_system_exit():
    from phi23.cli import run

    with pytest.raises(SystemExit) as info:
        run()
    assert info.value.code == 2
