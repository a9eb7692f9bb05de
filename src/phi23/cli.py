"""Command line front end: search (solver), scan (oracle), check (verdict).

Exit codes: 0 success, 1 check verdict negative, 2 usage error (also a
search whose bounds need primes past the prime table's sieve cap), 3
factoring gave up (a search is then incomplete, a check reaches no verdict).
A usage error prints one ``error: `` line, the message of the check that
owns the rule: the parser for the command line's shape and the count
syntax, SearchConfig for k and threads, the oracle's sieve for the scan
limit, check_single for check's n.
Solutions are printed only after a search completes, so an interrupted run
never emits a partial result.  ``search --stats`` reports ``threads=`` as
SearchConfig.workers, the workers the run may start (``--threads`` capped at
the cores); a run with fewer subtree tasks than that starts one process per
task.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import sys
import time

from .arith import FactoringError, SieveCapError
from .oracle import check_single, scan_solutions
from .search import SearchConfig, SearchCounters, solve, steinerberger_relevance

__all__ = ["main", "run"]


# Python's default limit on int-string conversion: a count with more digits
# could not be printed, and converting one to int takes time quadratic in
# its digits, so 1e1000000 is refused before it is converted.
_MAX_COUNT_DIGITS = 4300


def _parse_count(text: str) -> int:
    """Exact integer from plain or scientific notation; 1e14 stays exact."""
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    if value and value.adjusted() >= _MAX_COUNT_DIGITS:
        raise argparse.ArgumentTypeError(f"a count has at most {_MAX_COUNT_DIGITS} digits")
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _solution_line(n: int, factors: tuple[int, ...], relevance: bool, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {"n": n, "k": len(factors), "factors": list(factors), "relevance": relevance}
        )
    joined = ",".join(str(f) for f in factors)
    return f"n={n} k={len(factors)} factors=[{joined}] relevance={'yes' if relevance else 'no'}"


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


class _Parser(argparse.ArgumentParser):
    """Reports its own refusals as usage errors; subparsers inherit it."""

    def error(self, message: str):
        raise SystemExit(_usage_error(message))


def cmd_search(args: argparse.Namespace) -> int:
    if args.k is not None and (args.k_min is not None or args.k_max is not None):
        return _usage_error("--k cannot be combined with --k-min/--k-max")
    if args.k is not None:
        k_min = k_max = args.k
    else:
        k_min = 1 if args.k_min is None else args.k_min
        k_max = args.k_max
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    try:
        config = SearchConfig(k_min=k_min, k_max=k_max, limit=args.limit, threads=threads)
    except ValueError as exc:
        return _usage_error(str(exc))

    counters = SearchCounters()
    started = time.monotonic()
    try:
        solutions = solve(config, counters)
    except SieveCapError as exc:
        return _usage_error(f"the search {exc}; no solutions were printed")
    elapsed = time.monotonic() - started

    for sol in solutions:
        print(_solution_line(sol.n, sol.factors, steinerberger_relevance(sol), args.format))
    if args.stats:
        summary = {
            # the k range searched, which the limit may have capped
            "k_min": config.ks.start,
            "k_max": config.ks.stop - 1,
            "limit": config.limit,
            "threads": config.workers,
            "solutions": len(solutions),
        }
        counts = counters.as_dict()
        if args.format == "json":
            report = {"command": "search", **summary, "wall_time_sec": round(elapsed, 6), "counters": counts}
            print(json.dumps({"report": report}))
        else:
            print("# search", *(f"{k}={v}" for k, v in summary.items()), f"wall_time_sec={elapsed:.3f}")
            print("#", *(f"{k}={v}" for k, v in counts.items()))
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    try:
        found = scan_solutions(args.limit)
    except ValueError as exc:
        return _usage_error(str(exc))
    for n in found:
        res = check_single(n)
        factors = tuple(p for p, e in res.factors for _ in range(e))
        print(_solution_line(n, factors, res.relevance, args.format))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    try:
        res = check_single(args.n)
    except ValueError as exc:
        return _usage_error(str(exc))
    if res.factors:
        shown = " * ".join(
            str(p) if e == 1 else f"{p}^{e}" for p, e in res.factors
        )
        print(f"n = {res.n} = {shown}")
    else:
        print(f"n = {res.n}")
    print(f"phi(n) = {res.phi}")
    print(f"solution: {'yes' if res.is_solution else 'no'}")
    print(f"square-free: {'yes' if res.square_free else 'no'}")
    print(f"n mod 6 = {res.mod6}")
    m = 4 * res.n + 1
    if m % 3 != 0:
        print("relevance: no ((4n+1)/3 is not an integer)")
    elif res.relevance:
        print(f"relevance: yes ((4n+1)/3 = {m // 3} is prime)")
    else:
        print(f"relevance: no ((4n+1)/3 = {m // 3} is composite)")
    return 0 if res.is_solution else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: building it costs
    several times what parsing with it does."""
    parser = _Parser(
        prog="phi23",
        description="Find every n with phi(n) = (2/3)(n+1): "
        "exhaustive pruned search plus a brute-force cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="run the pruned solver")
    p_search.add_argument("--k", type=int, help="exact number of prime factors")
    p_search.add_argument("--k-min", type=int, help="smallest k (default 1)")
    p_search.add_argument("--k-max", type=int, help="largest k")
    p_search.add_argument(
        "--limit",
        type=_parse_count,
        help="only report n <= LIMIT (accepts 1e14 style); required for k > 6",
    )
    p_search.add_argument(
        "--threads", type=int, help="worker processes, at most one per core (default: all cores)"
    )
    p_search.add_argument("--format", choices=("text", "json"), default="text")
    p_search.add_argument("--stats", action="store_true", help="append a run report")
    p_search.set_defaults(
        func=cmd_search,
        gave_up="the search is incomplete and printed no solutions "
        "(factoring is deterministic, so a rerun gives up at the same branch)",
    )

    p_scan = sub.add_parser("scan", help="brute-force totient scan (oracle)")
    p_scan.add_argument("--limit", type=_parse_count, required=True)
    p_scan.add_argument("--format", choices=("text", "json"), default="text")
    p_scan.set_defaults(func=cmd_scan, gave_up="the scan is incomplete")

    p_check = sub.add_parser("check", help="verdict for a single n")
    p_check.add_argument("n", type=_parse_count)
    p_check.set_defaults(func=cmd_check, gave_up="no verdict was reached")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code  # 0 after --help, 2 after a refusal
    try:
        return args.func(args)
    except FactoringError as exc:
        # each subcommand's gave_up says what the failure left undone
        print(f"error: {exc}; {args.gave_up}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
