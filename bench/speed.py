"""Machine-speed references, timed alongside the workload.

On a shared machine the same work runs up to twice as slow for tens of
seconds at a time.  Each run therefore also times two fixed references that
never touch cartanbal:

* ``kernel``: exact-rational factor normalisation (Fraction, gcd/lcm,
  Counter cancellation) plus a few scipy ``quad`` calls on Python
  integrands, the same kinds of work as the in-process workloads, on inputs
  that change from call to call; timed in short bursts between operations;
* ``startup``: a fresh interpreter importing numpy and scipy.integrate, the
  bulk of a CLI process and of set-up; timed between processes.

End-to-end times are reported at reference speed: the raw time multiplied by
REFERENCE / (median reference time of this run).  A change to cartanbal
moves the scaled figures by the same share as the raw ones, while a slow
stretch of the machine slows the reference too and cancels out.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

from scipy.integrate import quad

# Typical reference times on the machine the baseline was recorded on, a
# shared 2-core Intel Xeon virtual machine with Python 3.11.7 (see
# bench/baseline.json).
REFERENCE_KERNEL_S = 0.0020
REFERENCE_STARTUP_S = 0.60


def kernel(step: int) -> float:
    """One reference unit of work; `step` varies the inputs from call to call.

    Four rounds of factor normalisation on 23 to 59 affine factors (lcm,
    gcd, Counter cancellation, sorting, evaluation at a rational point),
    then three ``quad`` calls.  Inputs differ on every call, as the
    workload's do: a kernel that repeats one input runs faster in a quiet
    stretch of the machine than the workloads do.
    """
    base = step * 7919
    total = Fraction(0)
    for n in (12, 18, 24, 30):
        numer, denom, scale = Counter(), Counter(), Fraction(1)
        for i in range(1, 2 * n):
            slope = Fraction((base + i) % 13 + 1, i % 5 + 2)
            intercept = Fraction(3 * i + base % 17, 4 + i % 3)
            den = math.lcm(slope.denominator, intercept.denominator)
            p = slope.numerator * (den // slope.denominator)
            q = intercept.numerator * (den // intercept.denominator)
            g = math.gcd(p, q)
            scale *= Fraction(g, den)
            (numer if i % 2 else denom)[(p // g, q // g)] += 1
        x = Fraction(base % 11 + 1, 3)
        for p, q in sorted((numer - (numer & denom)).elements()):
            scale *= p * x + q
        total += scale
    for j in range(3):
        e = 0.25 + (step + j) % 7 / 8
        total += Fraction(quad(lambda t: t ** (j + 2) * (1 - t) ** e, 0, 1, epsrel=1e-10)[0])
    return float(total)


class SpeedProbe:
    """Reference samples for one run; bursts of BURST kernels every EVERY_S."""

    EVERY_S = 0.5
    BURST = 3

    def __init__(self, env: dict, cwd):
        self.kernel_s: list[float] = []
        self.startup_s: list[float] = []
        self._env = env
        self._cwd = cwd
        self._due = 0.0

    def burst(self) -> None:
        for _ in range(self.BURST):
            start = perf_counter()
            kernel(len(self.kernel_s))
            self.kernel_s.append(perf_counter() - start)
        self._due = perf_counter() + self.EVERY_S

    def maybe(self) -> None:
        if perf_counter() >= self._due:
            self.burst()

    def startup(self) -> None:
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import numpy, scipy.integrate"],
            env=self._env, cwd=self._cwd, check=True, timeout=60,
        )
        self.startup_s.append(perf_counter() - start)

    @property
    def kernel_factor(self) -> float:
        """Scale for in-process times: below 1 on a slow stretch."""
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s)

    @property
    def startup_factor(self) -> float:
        """Scale for process times: below 1 on a slow stretch."""
        return REFERENCE_STARTUP_S / statistics.median(self.startup_s)
