"""Speed probe: a fixed piece of the benchmark's own work, timed beside each op.

The machine a benchmark shares can change speed by half within a minute, and
every op slows with it.  The probe runs the kinds of work the workloads do --
an interpreted integer loop, ``fractions.Fraction`` arithmetic, scalar numpy
calls on 3-vectors and batched ``einsum`` on small matrices -- in about 50 ms,
and never calls linestab, so a change to the program cannot move it.  An op's
time divided by the mean of the probes just before and after it is the op's
cost in probes: machine drift cancels, a change to the program does not.
The garbage collector is off while the probe runs, so that its time does not
depend on the objects the ops before it left behind.
"""
from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(0)
_BATCH = _RNG.normal(size=(2000, 8, 8))
_VEC = _RNG.normal(size=(2000, 8))


def _work() -> float:
    s = 0
    for i in range(100_000):
        s += i * i
    x, f = Fraction(3, 7), Fraction(0)
    for i in range(1, 1500):
        f = f * x + Fraction(i, i + 1)
    a = np.ones(3)
    for _ in range(3000):
        a = np.dot(a, a) * a / (1.0 + np.dot(a, a))
    for _ in range(10):
        np.einsum("mab,mb->ma", _BATCH, _VEC)
        np.sqrt(np.abs(_BATCH)).max(axis=2)
    return float(s % 7) + float(f.numerator % 7) + float(a[0])


def probe() -> float:
    """Seconds one run of the fixed probe work takes now."""
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        gc.enable()
