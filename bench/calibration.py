"""A fixed calibration kernel that scales measured times to one machine speed.

On the shared 2-vCPU sandbox the benchmark was built on, the core a
process runs on switches, from under a second to minutes at a time,
between a fast state and a slow one in which the same code takes about
1.7 times as long; CPU time slows with wall time. Raw medians of 20 s runs
then differ by 17-32% between runs, depending on how much of each run fell
in which state. The kernel below slows by the same factor, so the
benchmark times it in the measuring process right before and right after
every batch (and at both ends of every set-up) and reports each time
multiplied by ``REFERENCE_S`` over the mean of the two kernel times: the
time the batch takes in the fast state. Raw times are printed beside the
scaled ones.

The kernel is Dempster's rule on bitmask-keyed dicts, interpreter work of
the same kind as dsfusion's own. It lives here so that no change to
dsfusion alters it; it must not change while baselines are compared.
"""

from __future__ import annotations

import time

# Kernel time in the fast state of the reference machine (2-vCPU Intel
# Xeon sandbox, CPython 3.11.7).
REFERENCE_S = 0.30e-3
REPEATS = 3
COMBINES = 120

_M1 = {1: 0.6, 2: 0.3, 3: 0.1}
_M2 = {1: 0.5, 2: 0.4, 3: 0.1}


def _combine(m1: dict, m2: dict) -> dict:
    acc: dict[int, float] = {}
    k = 0.0
    for b, vb in m1.items():
        for c, vc in m2.items():
            inter = b & c
            p = vb * vc
            if inter:
                acc[inter] = acc.get(inter, 0.0) + p
            else:
                k += p
    norm = 1.0 - k
    return {bits: v / norm for bits, v in acc.items()}


def kernel_s() -> float:
    """Seconds the kernel takes now: the fastest of a few repeats, so that a
    single interruption does not count."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(COMBINES):
            _combine(_M1, _M2)
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` in the fast state, from the kernel times around it."""
    return seconds * REFERENCE_S * 2 / (kernel_before + kernel_after)
