"""Benchmark for the phi23 solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
The workloads are described in ``workloads.py``.  With ``--trace 0`` it
reports the end-to-end metrics: median wall and CPU seconds per pass, the
peak memory of the workload process, and ``setup_s``, the median time a
fresh interpreter takes to import ``phi23``.  With ``--trace 1`` it
reports the per-layer metrics of a traced serial run instead.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted`` (passes), ``failed`` (passes that raised, exited non-zero or
printed wrong solutions) and ``metrics``.  Without ``src/phi23`` it exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
# The run must end within 180 s; leave room for set-up and start-up.
RUNNER_TIMEOUT = 160


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from starting each of SETUP_SAMPLES fresh interpreters until
    ``import phi23`` is done, measured and in reference seconds (speed.py)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    measured, reference = [], []
    before = speed.burst()
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", "import phi23; print(flush=True)"],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE) as child:
            ready = child.stdout.readline()
            measured.append(perf_counter() - t0)
        if child.returncode != 0 or not ready:
            raise RuntimeError(f"import phi23 failed with exit code {child.returncode}")
        after = speed.burst()
        reference.append(speed.to_reference(measured[-1], before + after))
        before = after
    return measured, reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="phi23 benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "phi23" / "__init__.py").is_file():
        print(f"error: no phi23 package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    setup_measured, setup = ([], []) if args.trace else measure_setup()
    command = [sys.executable, str(HERE / "runner.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    # A process group of its own, so stopping it also stops the pool workers it forked.
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            stdout, _ = child.communicate(timeout=RUNNER_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"error: workload did not finish within {RUNNER_TIMEOUT} s", file=sys.stderr)
            return 1
        finally:
            if child.poll() is None:  # timed out, or this process is being stopped
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
    if child.returncode != 0:
        print(f"error: workload runner exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(stdout.splitlines()[-1])
    samples = result.pop("samples")
    raw = result.pop("raw", None)
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        samples["setup_s"] = len(setup)
        raw["setup_s"] = statistics.median(setup_measured)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()}")
    for call in workloads.calls_for(args.workload, args.seed):
        print(f"# input: phi23 {' '.join(call.argv)}")
    print(f"# passes attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    if raw:
        print(f"# times below are reference seconds (probe {speed.REFERENCE_PROBE_S} s); "
              + " ".join(f"measured {k}={v:.6g}" for k, v in raw.items()))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']} (samples={samples[name]})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(main())
