"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench
"""

import gzip
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import runner
import spans
import speed
import workloads

CLI_MAIN = runner.load_cli()

import phi23.arith  # noqa: E402  (importable only after load_cli)
import phi23.equation  # noqa: E402
import phi23.search  # noqa: E402


def limit_call(limit: int, threads: int = 1) -> workloads.Call:
    return workloads.Call(("search", "--limit", str(limit), "--threads", str(threads)), limit)


def test_factoring_error_is_a_failed_pass_not_an_abort(monkeypatch, capsys):
    def give_up(n, rho_rounds=8):
        raise phi23.arith.FactoringError(n)

    monkeypatch.setattr(phi23.equation, "factorize", give_up)
    result = runner.measure(CLI_MAIN, [limit_call(10**8)], seconds=0.01)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"]  # nothing wrong was printed; the pass just failed
    assert "factoring gave up" in capsys.readouterr().err


def test_exception_escaping_the_cli_is_a_failed_pass(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(phi23.search, "absorb_prime", broken)
    result = runner.run_pass(CLI_MAIN, [limit_call(10**8)])
    assert result.failed and not result.wrong


def test_wrong_solution_set_fails_the_pass_and_the_run(monkeypatch):
    monkeypatch.setattr(phi23.search, "one_prime_solve", lambda state, lo, limit=None: [])
    result = runner.measure(CLI_MAIN, [limit_call(10**8)], seconds=0.01)
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_tracer_wraps_every_lookup_site_once_and_restores_them():
    original = phi23.arith.is_prime
    assert phi23.equation.is_prime is original and phi23.search.is_prime is original
    tracer = spans.Tracer()
    with tracer:
        assert phi23.arith.is_prime is phi23.equation.is_prime is phi23.search.is_prime
        assert phi23.arith.is_prime is not original
        phi23.search.is_prime(101)
        phi23.equation.factorize(1_000_003 * 1_000_033)
    recorded = tracer.take()
    assert phi23.arith.is_prime is original
    assert phi23.equation.factorize.__name__ == "factorize"
    ids = {name: i for i, name in enumerate(spans.LAYER_NAMES)}
    layers = recorded["layer"]
    assert layers[0] == ids["arith.is_prime"]  # one span, not a wrapper inside a wrapper
    assert layers[1] == ids["arith.factorize"]
    nested = [i for i, p in enumerate(recorded["parent"]) if p == 1]
    assert nested and all(layers[i] == ids["arith.is_prime"] for i in nested)


def test_summarize_self_time_and_endgame_ratios():
    ids = {name: i for i, name in enumerate(spans.LAYER_NAMES)}
    # two_prime_solve [0, 10] factors [1, 7], which calls is_prime [2, 4] and
    # holds a speed probe [5, 5.5]; a second two_prime_solve [11, 12] skips
    # factoring; absorb_prime [13, 14] returns a state.  The pass lasted 20 s
    # with the probe, so 19.5 s without.
    recorded = {
        "layer": [ids["equation.two_prime_solve"], ids["arith.factorize"], ids["arith.is_prime"],
                  ids["equation.two_prime_solve"], ids["equation.absorb_prime"]],
        "parent": [-1, 0, 1, -1, -1],
        "start": [0.0, 1.0, 2.0, 11.0, 13.0],
        "end": [10.0, 7.0, 4.0, 12.0, 14.0],
        "out": [1, 4, 0, 0, 1],
        "groups": [(3, 0.0, 15.0)],
        "probes": [(5.0, 5.5)],
    }
    summary = spans.summarize(recorded, wall=19.5)
    stats = summary["stats"]
    assert stats["arith.is_prime.s"] == 2.0
    assert stats["arith.factorize.s"] == 3.5
    assert stats["arith.factorize.p50_ms"] == 5500.0
    assert stats["equation.two_prime_solve.s"] == 10.5
    assert stats["equation.two_prime_solve.scan_s"] == 5.0
    assert stats["equation.two_prime_solve.limit_skips"] == 1
    assert stats["equation.two_prime_solve.pair_yield"] == 0.25
    assert stats["equation.absorb_prime.yield"] == 1.0
    assert stats["search.walk_self_s"] == 19.5 - 11.5
    self_total = sum(stats[f"{name}.s"] for name in spans.LAYER_NAMES
                     if name != "equation.two_prime_solve")
    assert self_total + stats["equation.two_prime_solve.scan_s"] + stats["search.walk_self_s"] == 19.5
    assert summary["per_k"] == {3: 14.5}
    assert summary["endgames"] == 2


@pytest.mark.parametrize("calls", [
    [limit_call(10**9)],
    [workloads.Call(("search", "--k-min", "1", "--k-max", "4", "--threads", "1"), None, 1, 4)],
    [limit_call(10**9, threads=2)],
])
def test_traced_run_accounts_for_every_node(calls, tmp_path):
    result = runner.measure_traced(CLI_MAIN, calls, seconds=0.01, span_path=tmp_path / "s.json.gz")
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(runner.PER_LAYER)
    assert metrics["search.nodes_expanded"]["value"] > 0
    assert (metrics["search.pool.busy_frac"]["value"] > 0) == ("2" in calls[0].argv)
    with gzip.open(tmp_path / "s.json.gz") as fh:
        assert json.load(fh)["passes"]


def test_reference_seconds_use_the_mean_speed_over_the_probes():
    ref = speed.REFERENCE_PROBE_S
    assert speed.to_reference(2.0, [ref, ref]) == pytest.approx(2.0)
    # Half the samples at half speed: the work done is three quarters.
    assert speed.to_reference(2.0, [ref, 2 * ref]) == pytest.approx(1.5)


def test_sampler_probes_during_work_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.INTERVAL:
            pass
    assert len(sampler.samples) >= 1
    assert 0 < sampler.wall_spent < time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_workload_inputs_follow_the_seed_within_the_band():
    for name in workloads.NAMES:
        assert workloads.calls_for(name, 7) == workloads.calls_for(name, 7)
    assert workloads.calls_for("limit-1e14", 1) != workloads.calls_for("limit-1e14", 2)
    for seed in range(20):
        for call, (nominal, k) in zip(workloads.calls_for("walk-deep-k", seed),
                                      workloads.DEEP_SLICES):
            assert abs(call.limit - nominal) <= workloads.LIMIT_BAND * nominal
            assert k == phi23.search.max_k_for_limit(call.limit) - 2
            assert call.expected() == {}
        (call,) = workloads.calls_for("limit-1e14-2w", seed)
        assert call.expected() == workloads.KNOWN_SOLUTIONS
        assert call.serial().argv[-1] == "1"
    (call,) = workloads.calls_for("paper-k1-6", 3)
    assert call.expected() == workloads.KNOWN_SOLUTIONS


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((runner.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {**runner.END_TO_END, "setup_s": "s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == runner.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(runner.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(runner.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-k1-6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
