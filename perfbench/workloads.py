"""The four benchmark workloads and the solutions each one must report.

Every workload does most of its work in a different layer of the solver,
so a later optimisation has one workload where its gain should show and at
least one where nothing should move:

- ``paper-k1-6``: the paper's unbounded proof for k = 1..6; the only
  workload where re-sieving prime tables is a visible share of the pass.
- ``limit-1e14``: the long bounded run; Brent-rho factoring in the
  two-prime endgame is about nine tenths of the pass.
- ``walk-deep-k``: six fixed-k slices deep in the tree; every endgame dies
  on the limit pre-check, so the pass is tree walk and next-prime bounds
  with zero factoring calls.
- ``limit-1e14-2w``: the same search as ``limit-1e14`` on two worker
  processes; the only workload that uses the process pool.

The seed moves each limit by at most ``LIMIT_BAND`` of its nominal value.
Inside that band the factor counts of ``walk-deep-k`` keep their value and
no known solution crosses a limit, so the expected solutions never change.
``paper-k1-6`` has no limit, so its input does not depend on the seed.

This module does not import ``phi23``: the entry point reads the workload
names from it before it knows whether the program is there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Every solution of 3*prod(q - 1) = 2*prod(q) + 2 below 1e14, by n.
KNOWN_SOLUTIONS: dict[int, tuple[int, ...]] = {
    5: (5,),
    35: (5, 7),
    1295: (5, 7, 37),
    1_679_615: (5, 7, 37, 1297),
}

LIMIT_BAND = 0.01

# (nominal limit, k) for walk-deep-k: k = max_k_for_limit(limit) - 2, the
# deepest slices whose endgames all fail the limit pre-check.
DEEP_SLICES = ((10**28, 17), (10**30, 18), (10**32, 19), (10**34, 20), (10**36, 21), (10**38, 22))

WHY = {
    "paper-k1-6": "unbounded k=1..6, the paper's proof; many short passes where re-sieving prime tables shows",
    "limit-1e14": "search to 1e14 on one core; Brent-rho factoring in the two-prime endgame is ~90% of the pass",
    "walk-deep-k": "six fixed-k slices k=17..22 to 1e28..1e38; tree walk and bounds only, zero factorize calls",
    "limit-1e14-2w": "the 1e14 search on two worker processes; the only workload using the process pool",
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Call:
    """One ``phi23`` command line and the solution range it must cover."""

    argv: tuple[str, ...]
    limit: int | None
    k_min: int = 1
    k_max: int | None = None

    def expected(self) -> dict[int, tuple[int, ...]]:
        """The known solutions this call has to print, by n."""
        return {
            n: f
            for n, f in KNOWN_SOLUTIONS.items()
            if (self.limit is None or n <= self.limit)
            and self.k_min <= len(f) <= (self.k_max or len(f))
        }

    @property
    def threads(self) -> int:
        return int(self.argv[self.argv.index("--threads") + 1])

    def serial(self) -> "Call":
        """The same call on one worker process."""
        argv = list(self.argv)
        argv[argv.index("--threads") + 1] = "1"
        return Call(tuple(argv), self.limit, self.k_min, self.k_max)


def _perturb(nominal: int, rng: random.Random) -> int:
    return round(nominal * (1 + rng.uniform(-LIMIT_BAND, LIMIT_BAND)))


def calls_for(name: str, seed: int) -> list[Call]:
    """The command lines of one pass of workload ``name`` under ``seed``."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    if name == "paper-k1-6":
        return [Call(("search", "--k-min", "1", "--k-max", "6", "--threads", "1"), None, 1, 6)]
    if name == "walk-deep-k":
        out = []
        for nominal, k in DEEP_SLICES:
            limit = _perturb(nominal, rng)
            argv = ("search", "--k", str(k), "--limit", str(limit), "--threads", "1")
            out.append(Call(argv, limit, k, k))
        return out
    limit = _perturb(10**14, rng)
    threads = "2" if name == "limit-1e14-2w" else "1"
    return [Call(("search", "--limit", str(limit), "--threads", threads), limit)]
