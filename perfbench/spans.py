"""Span tracing of phi23's layers, done entirely from the benchmark's side.

``Tracer`` replaces each layer function with a wrapper at every ``phi23``
module attribute that holds it, because callers look the name up in their
own module (``search.py`` calls its imported ``absorb_prime``, the endgame
calls ``equation.factorize``, rho calls ``arith.is_prime``).  One wrapper
serves all sites of one function, so a call is recorded once however many
names point at it.  Spans live in in-memory arrays until the pass ends;
leaving the ``with`` block puts the original functions back.

Only serial runs can be traced: forked pool workers would inherit the
wrappers, but their spans would stay in the workers.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
from array import array
from bisect import bisect_left, bisect_right
from math import prod
from time import perf_counter

# (defining module, function): the layers.  Their order fixes the layer ids.
LAYERS = (
    ("arith", "build_prime_table"),
    ("arith", "is_prime"),
    ("arith", "factorize"),
    ("equation", "absorb_prime"),
    ("equation", "finiteness_bound"),
    ("equation", "limit_bound"),
    ("equation", "one_prime_solve"),
    ("equation", "two_prime_solve"),
)
LAYER_NAMES = tuple(f"{m}.{f}" for m, f in LAYERS)
# Grouping span: per-k time, not a layer, so it is left out of self times.
GROUP = ("search", "search_exact_k")
SITE_MODULES = ("arith", "equation", "search", "cli")

_BUILD, _IS_PRIME, _FACTORIZE, _ABSORB, _FINITENESS, _LIMIT, _ONE, _TWO = range(len(LAYERS))


def _divisor_pairs(fact) -> int:
    # Pairs f1 <= f2 with f1 * f2 == n: half the divisor count, rounded up.
    return (prod(e + 1 for _, e in fact.factors) + 1) // 2


class Tracer:
    """Context manager recording one span per layer call made inside it."""

    def __init__(self) -> None:
        self._modules = {m: importlib.import_module(f"phi23.{m}") for m in SITE_MODULES}
        state_type = self._modules["equation"].EquationState
        self._measures = {
            _BUILD: lambda table: table.limit,
            _FACTORIZE: _divisor_pairs,
            _ABSORB: lambda out: int(isinstance(out, state_type)),
            _TWO: len,
        }
        self.layer = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        # Measure of each call's result (see _measures), or -1 when it raised.
        self.out = array("q")
        self.groups: list[tuple[int, float, float]] = []
        # (start, end) of speed probes run during the pass (speed.Sampler).
        self.probes: list[tuple[float, float]] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for lid, (mod, name) in enumerate(LAYERS):
            fn = getattr(self._modules[mod], name)
            wrappers[fn] = self._wrap(lid, fn, self._measures.get(lid))
        fn = getattr(self._modules[GROUP[0]], GROUP[1])
        wrappers[fn] = self._wrap_group(fn)
        try:
            for module in self._modules.values():
                for name, value in list(vars(module).items()):
                    wrapper = wrappers.get(value) if callable(value) else None
                    if wrapper is not None:
                        self._restore.append((module, name, value))
                        setattr(module, name, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            module, name, value = self._restore.pop()
            setattr(module, name, value)

    def _wrap(self, lid, fn, measure):
        layer, parent, start, end, out, stack = (
            self.layer, self.parent, self.start, self.end, self.out, self._stack)

        def wrapper(*args, **kwargs):
            i = len(layer)
            layer.append(lid)
            parent.append(stack[-1])
            end.append(0.0)
            out.append(-1)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            out[i] = measure(result) if measure else 0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_group(self, fn):
        groups = self.groups

        def wrapper(k, *args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(k, *args, **kwargs)
            finally:
                groups.append((k, t0, perf_counter()))

        wrapper.__wrapped__ = fn
        return wrapper

    def probe_span(self, t0: float, t1: float) -> None:
        """Record a speed probe that ran from t0 to t1.

        It runs in a signal handler, possibly halfway through a wrapper's
        appends, so it goes to a list of its own; ``summarize`` takes it out
        of every span that contains it.
        """
        self.probes.append((t0, t1))

    def take(self) -> dict:
        """The spans recorded since the last take, which are then cleared."""
        spans = {
            "layer": self.layer.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "out": self.out.tolist(),
            "groups": list(self.groups),
            "probes": list(self.probes),
        }
        for arr in (self.layer, self.parent, self.start, self.end, self.out):
            del arr[:]
        self.groups.clear()
        self.probes.clear()
        return spans


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]


def _probe_time(probes: list[tuple[float, float]]):
    """A function giving the probe seconds inside an interval [t0, t1].

    Probes never overlap each other, so the ones inside an interval are a
    run of the sorted list.
    """
    probes = sorted(probes)
    starts = [a for a, _ in probes]
    ends = [b for _, b in probes]
    total = [0.0]
    for a, b in probes:
        total.append(total[-1] + (b - a))

    def inside(t0: float, t1: float) -> float:
        i = bisect_left(starts, t0)
        j = bisect_right(ends, t1)
        return total[j] - total[i] if j > i else 0.0

    return inside


def summarize(spans: dict, wall: float) -> dict:
    """Per-layer counts and times of one traced pass lasting ``wall`` seconds.

    ``<layer>.s`` is self time: a span's duration minus what its child spans
    cover, so ``is_prime`` inside ``factorize`` counts for ``is_prime``
    alone and the layer times plus ``search.walk_self_s`` add up to the pass
    wall.  ``two_prime_solve.s`` is the exception: it is the endgame's whole
    time, factoring included, and its self time is ``scan_s``.  Speed
    probes are taken out of every span that contains them; ``wall``
    excludes them already.
    """
    layer, parent, start, end, out = (
        spans["layer"], spans["parent"], spans["start"], spans["end"], spans["out"])
    probe_time = _probe_time(spans["probes"])
    n = len(layer)
    dur = [end[i] - start[i] - probe_time(start[i], end[i]) for i in range(n)]
    child = [0.0] * n
    factored = bytearray(n)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
            if layer[i] == _FACTORIZE:
                factored[p] = 1
    nl = len(LAYERS)
    calls, raised, self_s, incl_s, out_sum = [0] * nl, [0] * nl, [0.0] * nl, [0.0] * nl, [0] * nl
    fz_ms: list[float] = []
    pairs_examined = two_skips = 0
    root_time = 0.0
    for i in range(n):
        lid = layer[i]
        calls[lid] += 1
        self_s[lid] += dur[i] - child[i]
        incl_s[lid] += dur[i]
        if out[i] < 0:
            raised[lid] += 1
        else:
            out_sum[lid] += out[i]
        if parent[i] < 0:
            root_time += dur[i]
        if lid == _FACTORIZE:
            fz_ms.append(dur[i] * 1e3)
            if out[i] >= 0 and parent[i] >= 0 and layer[parent[i]] == _TWO:
                pairs_examined += out[i]
        elif lid == _TWO and not factored[i] and out[i] >= 0:
            two_skips += 1
    fz_ms.sort()
    slowest_tenth = fz_ms[len(fz_ms) - (len(fz_ms) + 9) // 10:]
    per_k: dict[int, float] = {}
    for k, t0, t1 in spans["groups"]:
        per_k[k] = per_k.get(k, 0.0) + (t1 - t0 - probe_time(t0, t1))

    def ratio(a, b):
        return a / b if b else 0.0

    stats = {}
    for lid, name in enumerate(LAYER_NAMES):
        stats[f"{name}.calls"] = calls[lid]
        stats[f"{name}.s"] = self_s[lid]
    stats.update({
        "arith.build_prime_table.sieved": out_sum[_BUILD],
        "arith.factorize.p50_ms": _quantile(fz_ms, 0.50),
        "arith.factorize.p99_ms": _quantile(fz_ms, 0.99),
        "arith.factorize.top10_share": ratio(sum(slowest_tenth), sum(fz_ms)),
        "arith.factorize.failed": raised[_FACTORIZE],
        "equation.absorb_prime.yield": ratio(out_sum[_ABSORB], calls[_ABSORB] - raised[_ABSORB]),
        "equation.two_prime_solve.s": incl_s[_TWO],
        "equation.two_prime_solve.scan_s": self_s[_TWO],
        "equation.two_prime_solve.limit_skips": two_skips,
        "equation.two_prime_solve.pair_yield": ratio(out_sum[_TWO], pairs_examined),
        "search.walk_self_s": wall - root_time,
    })
    return {
        "stats": stats,
        "per_k": per_k,
        # Bounds that returned: table-growth retries raise and are re-done.
        "finiteness_done": calls[_FINITENESS] - raised[_FINITENESS],
        "limit_done": calls[_LIMIT] - raised[_LIMIT],
        "endgames": calls[_ONE] + calls[_TWO],
    }


def traced_nodes(summary: dict, limited: bool) -> int:
    """Nodes the traced calls account for; must equal --stats nodes_expanded.

    Every expanded node computes one next-prime bound (limit_bound when a
    limit is set, else the finiteness bound) and every endgame node makes
    one one- or two-prime solve.
    """
    bounds = summary["limit_done"] if limited else summary["finiteness_done"]
    return bounds + summary["endgames"]


def dump(path, passes: list[dict]) -> None:
    """Write the recorded spans of every traced pass as gzipped JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump({"layers": LAYER_NAMES, "passes": passes}, fh)
