"""Machine-speed samples taken while a workload runs.

The host's speed drifts by up to a factor of 2 within seconds (NOTES.md,
"Steadiness").  For the in-process workloads a fixed reference loop,
independent of `qls`, is timed before every operation and every PERIOD_S
seconds from a SIGALRM handler, so samples also fall inside long package
calls.  For the `cli` workload, whose operations are child processes, the
reference is a child process too: a fresh interpreter that imports numpy
and scipy.linalg, timed between operations.  An operation's cost is its
time, less the sampling time, divided by the mean reference time sampled
from its start to its end.
"""

import signal
import subprocess
import sys
import time

import numpy as np

PERIOD_S = 0.05
_A = (np.arange(64).reshape(8, 8) % 7 + 1j * (np.arange(64).reshape(8, 8) % 5)) / 7 + 3 * np.eye(8)
_B = np.ones((8, 2), dtype=complex)


def reference_loop():
    """Seconds taken by 24 small complex solves and eigenvalue calls (about 1 ms)."""
    t0 = time.perf_counter()
    for i in range(24):
        np.linalg.solve(_A + i * np.eye(8), _B)
        np.linalg.eigvals(_A[:4, :4])
    return time.perf_counter() - t0


class Speedometer:
    """Reference-loop samples in time order, plus the total time spent taking them."""

    def __init__(self):
        self.samples = []
        self.busy = 0.0
        self._sampling = False

    def sample(self, *_):
        if self._sampling:  # a timer tick during an explicit sample
            return
        self._sampling = True
        t0 = time.perf_counter()
        try:
            self.samples.append(reference_loop())
        finally:
            self.busy += time.perf_counter() - t0
            self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


CHILD_REFERENCE = "import numpy, scipy.linalg"


class ChildSpeedometer(Speedometer):
    """Reference samples from a child interpreter, taken only between operations.

    A child's start and imports track the host's drift better than an
    in-process loop does (NOTES.md, "Steadiness"), and no sample competes
    with a running operation for the CPU.
    """

    def __init__(self, cwd, env):
        super().__init__()
        self._cwd, self._env = cwd, env

    def sample(self, *_):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", CHILD_REFERENCE], cwd=self._cwd, env=self._env,
                       check=True, capture_output=True, timeout=120)
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        self.busy += seconds

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass
