"""Machine-speed probe, for times that stay comparable on a shared host.

On a small shared virtual machine the CPU speed one process gets drifts by
up to half within seconds, and the solver and any other pure-Python code
slow down together.  ``probe`` times a fixed loop of the big-integer
arithmetic the solver spends its time on (a Brent-rho style squaring and
product, with a gcd now and then).  A time measured next to probes is
reported in reference seconds:

    measured seconds * REFERENCE_PROBE_S / harmonic mean of the probe seconds

that is, the time the work would take where the probe takes
``REFERENCE_PROBE_S`` (about its time at full speed on a 2-core x86-64
virtual machine with Python 3.11).  The probe is code of the benchmark, so
a change to the program cannot change it.
"""

from __future__ import annotations

import signal
import statistics
from math import gcd
from time import perf_counter, thread_time

PROBE_ITERS = 4000
REFERENCE_PROBE_S = 0.0025
BURST = 3
# Seconds between probes taken during a pass (see Sampler).
INTERVAL = 0.2

_MODULUS = ((1 << 61) - 1) * 1_000_000_007


def probe() -> float:
    """CPU seconds one fixed run of the reference loop takes now.

    CPU time of this thread, so a probe that shares a CPU with pool workers
    still measures the speed of the CPU, not its share of it.
    """
    t0 = thread_time()
    y, q, x = 3, 1, 2
    for i in range(PROBE_ITERS):
        y = (y * y + 7) % _MODULUS
        q = q * abs(x - y) % _MODULUS
        if i & 127 == 0:
            x = y
            gcd(q, _MODULUS)
    return thread_time() - t0


def burst() -> list[float]:
    return [probe() for _ in range(BURST)]


def to_reference(seconds: float, probes: list[float]) -> float:
    """``seconds`` as measured next to ``probes``, in reference seconds.

    The probes sample the speed at even intervals, so the work done is the
    time times the mean speed: the harmonic mean of the probe times.
    """
    return seconds * REFERENCE_PROBE_S / statistics.harmonic_mean(probes)


class Sampler:
    """Takes a probe every INTERVAL seconds of wall time while active.

    The probe runs in a SIGALRM handler, in between the program's bytecodes,
    so the samples follow the speed during a long pass.  ``wall_spent`` is
    the wall time the probes held this process, to be taken off a serial
    pass; pool workers, which do not inherit the timer, keep working
    meanwhile.  ``samples`` are CPU seconds, and their sum is CPU time to be
    taken off the pass.  ``on_probe``, if given, receives the start and end
    ``perf_counter`` of every probe, so a tracer can take it out of its spans.
    """

    def __init__(self, on_probe=None) -> None:
        self.samples: list[float] = []
        self.wall_spent = 0.0
        self._on_probe = on_probe
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(probe())
        t1 = perf_counter()
        self.wall_spent += t1 - t0
        if self._on_probe:
            self._on_probe(t0, t1)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
