"""Run one workload in this process and print its result as one JSON line.

    python3 perfbench/runner.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts this script in a fresh interpreter for every run, so the
peak memory reported here belongs to the workload alone: this process and
the pool workers it reaps.  Each pass calls ``phi23.cli.main`` in-process
with ``--format json --stats`` and checks the printed solutions and
counters.  A pass that exits non-zero, raises, or prints other solutions
than expected counts as failed; the run carries on.

With ``--trace 0`` passes repeat untraced for the given seconds and the
end-to-end metrics are their medians; times are in reference seconds, see
``speed.py``.  With ``--trace 1`` the run cycles
through an untraced pass and a traced serial pass (on ``limit-1e14-2w``
also an untraced two-worker pass for the pool metric), and reports the
per-layer metrics of ``spans.summarize`` as medians over traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
COUNTERS = ("nodes_expanded", "prune_gcd", "prune_finiteness", "prune_limit",
            "prune_corollary", "prune_congruence", "prune_infeasible")
K_MAX = max(k for _, k in workloads.DEEP_SLICES)


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("share", "yield", "frac")):
        return "frac"
    return "count"


_LAYER_EXTRAS = {
    "arith.build_prime_table": ("sieved",),
    "arith.factorize": ("p50_ms", "p99_ms", "top10_share", "failed"),
    "equation.absorb_prime": ("yield",),
    "equation.two_prime_solve": ("scan_s", "limit_skips", "pair_yield"),
}
PER_LAYER_NAMES = (
    *(f"{layer}.{m}" for layer in spans.LAYER_NAMES
      for m in ("calls", "s", *_LAYER_EXTRAS.get(layer, ()))),
    *(f"search.{c}" for c in COUNTERS),
    "search.walk_self_s",
    *(f"search.k{k}.s" for k in range(1, K_MAX + 1)),
    "search.pool.busy_frac",
    "trace_overhead_frac",
    "failed_frac",
)
PER_LAYER = {name: _unit(name) for name in PER_LAYER_NAMES}


def load_cli():
    """Import phi23 from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import phi23.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import phi23 from {SRC}: {exc}")
    origin = Path(phi23.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: phi23 was imported from {origin}, not from {SRC}")
    return phi23.cli.main


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, reaped.ru_utime + reaped.ru_stime


@dataclass
class PassResult:
    """Seconds of one pass, its verdict and its summed counters.

    ``wall`` and ``cpu`` exclude the probes taken during the pass; ``probes``
    holds every speed probe taken around and during it.
    """

    wall: float = 0.0
    cpu: float = 0.0
    workers_cpu: float = 0.0
    probes: list = field(default_factory=list)
    failed: bool = False
    wrong: bool = False
    counters: dict = field(default_factory=dict)

    @property
    def wall_ref(self) -> float:
        return speed.to_reference(self.wall, self.probes)

    @property
    def cpu_ref(self) -> float:
        return speed.to_reference(self.cpu, self.probes)


def _check_output(text: str, call: workloads.Call, result: PassResult) -> None:
    try:
        rows = [json.loads(line) for line in text.splitlines()]
        found = {row["n"]: tuple(row["factors"]) for row in rows[:-1]}
        counters = rows[-1]["report"]["counters"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        found, counters = {"unreadable output": repr(exc)}, {}
    for key, value in counters.items():
        result.counters[key] = result.counters.get(key, 0) + value
    expected = call.expected()
    if found != expected:
        result.failed = result.wrong = True
        print(f"wrong solutions from {' '.join(call.argv)}: {found} != {expected}", file=sys.stderr)


def run_pass(cli_main, calls: list[workloads.Call], on_probe=None) -> PassResult:
    """Run every call of one pass; wall time runs from call to printed result.

    Speed probes run before and after the pass and every ``speed.INTERVAL``
    seconds during it; ``on_probe`` is passed on to ``speed.Sampler``.
    """
    result = PassResult()
    gc.collect()
    result.probes += speed.burst()
    for call in calls:
        sampler = speed.Sampler(on_probe)
        out = io.StringIO()
        own0, reaped0 = _cpu()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), sampler:
                code = cli_main([*call.argv, "--format", "json", "--stats"])
        except Exception:  # a raising pass is a failed pass, not the end of the run
            traceback.print_exc()
            code = None
        t1 = perf_counter()
        own1, reaped1 = _cpu()
        wall, cpu = t1 - t0, (own1 - own0) + (reaped1 - reaped0)
        result.probes += sampler.samples
        cpu -= sum(sampler.samples)
        if call.threads == 1:
            wall -= sampler.wall_spent
        result.wall += wall
        result.cpu += cpu
        result.workers_cpu += reaped1 - reaped0
        if code != 0:
            result.failed = True
            print(f"failed pass: {' '.join(call.argv)} returned {code}", file=sys.stderr)
        else:
            _check_output(out.getvalue(), call, result)
    result.probes += speed.burst()
    return result


def repeat(seconds: float, cycle) -> None:
    """Call ``cycle`` at least once, and again while the next one fits."""
    t0 = perf_counter()
    lengths = []
    while True:
        c0 = perf_counter()
        cycle()
        lengths.append(perf_counter() - c0)
        if perf_counter() - t0 + statistics.median(lengths) > seconds:
            return


def _counters_agree(passes: list[PassResult]) -> bool:
    seen = [p.counters for p in passes if not p.failed]
    if any(c != seen[0] for c in seen):
        print(f"counters differ between passes of one input: {seen}", file=sys.stderr)
        return False
    return True


def _metric(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def measure(cli_main, calls, seconds: float) -> dict:
    passes: list[PassResult] = []
    repeat(seconds, lambda: passes.append(run_pass(cli_main, calls)))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "wall_s": statistics.median(p.wall_ref for p in passes),
        "cpu_s": statistics.median(p.cpu_ref for p in passes),
        "peak_rss_mb": max(own, reaped) / 1024,  # ru_maxrss is in KiB on Linux
    }
    return {
        "correct": not any(p.wrong for p in passes) and _counters_agree(passes),
        "attempted": len(passes),
        "failed": sum(p.failed for p in passes),
        "metrics": _metric(values, END_TO_END),
        "samples": {name: len(passes) for name in END_TO_END},
        "raw": {
            "wall_s": statistics.median(p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "probe_s": statistics.median(t for p in passes for t in p.probes),
        },
    }


def measure_traced(cli_main, calls, seconds: float, span_path: Path) -> dict:
    threads = calls[0].threads
    serial = [c.serial() for c in calls]
    limited = calls[0].limit is not None
    tracer = spans.Tracer()
    pooled: list[PassResult] = []
    untraced: list[PassResult] = []
    traced: list[tuple[PassResult, dict]] = []
    recorded: list[dict] = []

    def cycle():
        if threads > 1:
            pooled.append(run_pass(cli_main, calls))
        untraced.append(run_pass(cli_main, serial))
        with tracer:
            result = run_pass(cli_main, serial, on_probe=tracer.probe_span)
        recorded.append({"wall": result.wall, "probes": result.probes, **tracer.take()})
        summary = spans.summarize(recorded[-1], result.wall)
        scale = result.wall_ref / result.wall
        for name, value in summary["stats"].items():
            if PER_LAYER[name] in ("s", "ms"):
                summary["stats"][name] = value * scale
        summary["per_k"] = {k: t * scale for k, t in summary["per_k"].items()}
        traced.append((result, summary))

    repeat(seconds, cycle)
    passes = pooled + untraced + [p for p, _ in traced]
    complete = True
    for result, summary in traced:
        nodes = result.counters.get("nodes_expanded")
        seen = spans.traced_nodes(summary, limited)
        if not result.failed and seen != nodes:
            complete = False
            print(f"traced calls account for {seen} nodes, --stats says {nodes}", file=sys.stderr)
    spans.dump(span_path, recorded)

    def median(values):
        return statistics.median(values) if values else 0.0

    values = {name: median([s["stats"][name] for _, s in traced]) for name in traced[0][1]["stats"]}
    for k in range(1, K_MAX + 1):
        values[f"search.k{k}.s"] = median([s["per_k"].get(k, 0.0) for _, s in traced])
    counters = traced[0][0].counters
    for c in COUNTERS:
        values[f"search.{c}"] = counters.get(c, 0)
    values["search.pool.busy_frac"] = median([p.workers_cpu / (threads * p.wall) for p in pooled])
    values["trace_overhead_frac"] = (
        median([p.wall_ref for p, _ in traced]) / median([p.wall_ref for p in untraced]) - 1)
    failed = sum(p.failed for p in passes)
    values["failed_frac"] = failed / len(passes)
    return {
        "correct": not any(p.wrong for p in passes) and _counters_agree(passes) and complete,
        "attempted": len(passes),
        "failed": failed,
        "metrics": _metric(values, PER_LAYER),
        "samples": {name: len(traced) for name in PER_LAYER},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli_main = load_cli()
    calls = workloads.calls_for(args.workload, args.seed)
    if args.trace:
        span_path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        result = measure_traced(cli_main, calls, args.seconds, span_path)
    else:
        result = measure(cli_main, calls, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
