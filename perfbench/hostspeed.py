"""Host-speed reference: a fixed loop timed between calls to rescale their times.

On a small shared host the speed of the same code drifts with other
tenants' load: identical units of work swing by 20-40% over tens of seconds,
and the slowdown shows in CPU time as much as in wall time.  The reference
loop below does what replab's hot paths do (small LAPACK solves as in
support enumeration, (512, 9) array arithmetic and Philox draws as in the
engine), so it slows with them.  A ``Pacer`` times the loop between groups
of timed calls, and the calls of each group are multiplied by
``REFERENCE_S / mean of the two readings around the group``, giving seconds
on a host where the loop takes ``REFERENCE_S``.  The loop never calls
replab, so a change to the program moves the rescaled times as it moves the
raw ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.03          # nominal duration of the loop; the unit of rescaled time
_ITERATIONS = 250
_M = np.linspace(-1.0, 1.0, 81).reshape(9, 9) + 10.0 * np.eye(9)


def reference_seconds() -> float:
    """Wall time of the fixed reference loop (about 30 ms on an idle 2-core host)."""
    gen = np.random.Generator(np.random.Philox(key=7))
    x = np.full(9, 1.0 / 9.0)
    X = np.full((512, 9), 1.0 / 9.0)
    t0 = time.perf_counter()
    for _ in range(_ITERATIONS):
        x = np.exp(-np.abs(np.linalg.solve(_M, x)))
        x /= float(x.sum())
        Z = X @ _M + 0.01 * gen.standard_normal((512, 9))
        np.exp(-np.abs(Z), out=X)
        X /= X.sum(axis=1, keepdims=True)
    return time.perf_counter() - t0


class Pacer:
    """Reference readings taken between groups of timed calls."""

    def __init__(self):
        self._last = reference_seconds()

    def factor(self) -> float:
        """Speed factor for the calls made since the previous reading."""
        now = reference_seconds()
        factor = REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        return factor
