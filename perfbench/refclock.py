"""Seconds at a reference core speed.

The benchmark shares a few cores of a host whose speed per core drifts:
runs minutes apart, and seconds within one run, differ by up to about
1.6x in wall time, and process CPU time drifts the same way. A fixed
numpy probe, independent of the library, is timed at every boundary
between segments of measured work; each segment's wall time is scaled by
REF_PROBE_S over the mean of the probe times just before and just after
it. A segment therefore reads as the time it would take on a core that
runs the probe in REF_PROBE_S, and a change to the library moves it as it
moves wall time, while a change of host speed moves the probe with it.

The host changes speed within a second, so each segment is scaled by the
probes that touch it and not by a run-wide figure: over runs of the same
code this cut the spread of the median realize request from 0.09 to 0.03
of its median. One probe call per boundary spread less than the fastest
or the median of three.
"""

from __future__ import annotations

import time

import numpy as np

REF_PROBE_S = 0.5e-3  # the probe's time on the reference core

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64))
_S = _A @ _A.T + 64.0 * np.eye(64)
_B = _rng.standard_normal((96, 96))


def probe() -> np.ndarray:
    """Fixed work in the library's mix: matvec, elementwise, solve, matmul."""
    x = np.zeros(64)
    for i in range(8):
        x = np.linalg.solve(_S, np.tanh(_A @ x + _S[i]))
        _B @ _B
    return x


def probe_seconds() -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


class RefClock:
    """Accumulates segments of work, raw and scaled to reference speed.

    ``start`` probes and starts the first segment; each ``lap`` ends the
    running segment, probes, and starts the next one, so probe time never
    falls inside a segment. ``probe`` may be replaced for testing.
    """

    def __init__(self, probe=probe_seconds):
        self._probe = probe
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.probes = []

    def start(self) -> None:
        self._p0 = self._probe()
        self.probes.append(self._p0)
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        dt = time.perf_counter() - self._t0
        p1 = self._probe()
        self.probes.append(p1)
        self.add(dt, self._p0, p1)
        self._p0 = p1
        self._t0 = time.perf_counter()

    def add(self, dt: float, p_before: float, p_after: float) -> None:
        self.raw_s += dt
        self.ref_s += dt * REF_PROBE_S / (0.5 * (p_before + p_after))
