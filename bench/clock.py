"""The host's speed, read from two fixed kernels that do not use the program.

The reference host runs at changing speeds: in phases that last from
seconds to many minutes, pure-Python code runs up to 1.9x and numpy
array code up to 1.4x faster or slower than usual, and
``time.thread_time`` follows the wall clock, so the CPU itself is slower
or faster.  Averaging inside a run cannot remove phases that outlast it.
So each call into the program is scaled by the host's speed at the
moment it ran: a kernel with the same kind of work is timed just before
and just after it, and the call's time is multiplied by the kernel's
reference time over the mean of the two readings, giving the time the
call would have taken with the host at its reference speed.

``interp`` does what the CLI path does (dicts, string formatting, complex
arithmetic, JSON); ``array`` does what ``spectra.readout_timeseries`` does
(broadcast differences, ``exp``, ``einsum`` over ~260k-element arrays).
Neither calls weaktrace, so a change to the program cannot move them.
"""

from __future__ import annotations

import json
import time

import numpy as np


def interp() -> int:
    d = {}
    acc = 0j
    for i in range(400):
        z = complex(i, -i) * (0.5 + 0.5j)
        acc += z
        d[f"n{i}"] = {"re": z.real, "im": z.imag, "l": [i, str(i)]}
    s = json.dumps(d)
    return len(json.loads(s))


_D = 0.01 * np.sin(0.37 * np.arange(16 * 128.0)).reshape(16, 128)
_W = np.cos(0.11 * np.arange(128 * 128.0)).reshape(128, 128)


def array() -> float:
    diff = _D[:, :, None] - _D[:, None, :]
    ov = np.exp(-(diff**2) * 0.125)
    mid = 0.5 * (_D[:, :, None] + _D[:, None, :])
    return float(np.einsum("ij,kij->k", _W, ov).sum() + np.einsum("ij,kij->k", _W, mid * ov).sum())


# kernel -> its typical time in seconds on the reference host (2-vCPU
# Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, one BLAS thread; median
# over thirteen 40 s runs), so that scaled times read like wall times at
# the host's usual speed.  The constant only sets the scale: runs compare
# through it unchanged.
KERNELS = {
    "interp": (interp, 0.0023),
    "array": (array, 0.0062),
}


class Clock:
    """Times one kernel; ``factor`` is how much slower than reference the host runs now."""

    REPS = 2

    def __init__(self, kind: str):
        self.kernel, self.ref_s = KERNELS[kind]
        self.factors: list[float] = []
        for _ in range(3):  # warm up
            self.kernel()

    def factor(self) -> float:
        best = float("inf")
        for _ in range(self.REPS):
            t0 = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t0)
        f = best / self.ref_s
        self.factors.append(f)
        return f
