"""A fixed calibration kernel that tracks the machine's momentary speed.

On a shared virtual machine the same code runs up to a third faster or
slower from one minute to the next, and every op slows down alike.  The
benchmark times this kernel between ops and reports times in reference
units: raw time * REF_MS / (median kernel time in the same process).  The
kernel uses numpy and the stdlib only, never bezquad, so a change to
bezquad cannot move it.  It mixes what the ops do: interpreter loops, small
numpy ufuncs, a small dense solve, float formatting and parsing.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_MS = 3.0  # kernel time that defines the reference units

_RNG = np.random.default_rng(0)
_A = _RNG.random((24, 24)) + 24.0 * np.eye(24)
_B = _RNG.random(24)
_X = np.linspace(0.0, 1.0, 512)


def kernel_ms() -> float:
    """Run the kernel once; its wall time in ms."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(60):
        acc += float(np.linalg.solve(_A, _B + i).sum())
        acc += float(np.dot(np.cos(_X * i), _X))
    acc += sum(float(f"{v:.17g}") for v in _X)
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    if not acc == acc:  # keeps the work observable
        raise ArithmeticError("calibration kernel produced NaN")
    return (time.perf_counter() - t) * 1e3


def factor(samples) -> float:
    """Multiplier from raw times to reference units.

    The speed flips between a fast and a slow state every few ms, so the
    mean over samples spread across a run, not their median, matches the
    slowdown the ops saw."""
    return REF_MS / statistics.fmean(samples)
