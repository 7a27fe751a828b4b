"""Reference kernel that measures how fast the machine is right now.

On a small shared VM the machine's speed drifts by 20-30% within a minute
while CPU time keeps tracking wall time, so two runs of the same code can
differ by more than any useful regression bound.  The benchmark therefore
times this fixed kernel between every two rounds and rescales each round's
wall time to a machine on which the kernel takes ``REF_KERNEL_S``.  The
kernel mixes the three kinds of work the workloads do: interpreter work on
``Fraction`` dictionaries (the symbolic layers), numpy calls on small arrays
(dispatch-bound, like N=256) and on arrays past L2 (memory-bound, like
N=65536).  It is benchmark code, so no change to the program can speed it
up; it runs with the garbage collector off, so the program's heap does not
slow it down either.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

# Kernel time that defines one reference second; fixed for good, because
# changing it rescales every ``ref_`` metric.
REF_KERNEL_S = 0.012

_SMALL = np.linspace(0.0, 1.0, 256)
_LARGE = np.linspace(0.0, 1.0, 65536)


def _stencil(a: np.ndarray, steps: int) -> np.ndarray:
    for _ in range(steps):
        a = a + 0.01 * (8.0 * (np.roll(a, -1) - np.roll(a, 1)) - (np.roll(a, -2) - np.roll(a, 2)))
    return a


def kernel_s() -> float:
    """Seconds the fixed kernel takes now."""
    gc.disable()
    try:
        t0 = perf_counter()
        acc: dict[tuple[int, int], Fraction] = {}
        for i in range(1500):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
        _stencil(_SMALL, 120)
        _stencil(_LARGE, 5)
        return perf_counter() - t0
    finally:
        gc.enable()
