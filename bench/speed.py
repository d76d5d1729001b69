"""The host's speed, sampled while a command runs, so that times can be
reported at a reference speed.

On a VM that shares its cores, one plgp command can take 4.9 s or 6.5 s
within the same few minutes, and its process CPU time moves with its wall
time: the host's speed changes, not this process's share of it.  It changes
within a command too, so a reference computation timed between commands
does not follow it.  `Sampler` therefore interrupts the running command
every INTERVAL_S of wall time (SIGALRM) and times a small fixed computation,
`probe`, in the signal handler.  The harmonic mean of the probe times is
the probe's time at the host's mean rate during the command (a probe that a
stall stretched counts as one slow sample, not as a long one), and

    command seconds / harmonic mean probe seconds * REFERENCE_S

is the command's time at the speed at which one probe takes REFERENCE_S.
A change to plgp moves the command and not the probe; a change in the
host's speed moves both.  The probes cost about 3% of the command's time,
the same share on every commit.  The probe is exact `Fraction` elimination,
the kind of work plgp's kernel does, on a matrix fixed here, independent of
plgp and of any workload seed.
"""

from __future__ import annotations

import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# harmonic mean probe time on the 2-vCPU VM the benchmark was tuned on (Python
# 3.11.7); reported times are in seconds at that speed
REFERENCE_S = 0.00065
INTERVAL_S = 0.02
SIZE = 5

_RNG = random.Random("plgp-bench-speed")
_MATRIX = tuple(
    tuple(Fraction(_RNG.randint(-50, 50), _RNG.randint(1, 40)) for _ in range(SIZE))
    for _ in range(SIZE)
)


def rank(rows) -> int:
    """Rank of a Fraction matrix by Gaussian elimination."""
    m = [list(row) for row in rows]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def probe() -> float:
    """Seconds of the fixed computation: two ranks of the fixed matrix."""
    start = perf_counter()
    if rank(_MATRIX) + rank(_MATRIX) != 2 * SIZE:
        raise AssertionError("the probe matrix lost full rank")
    return perf_counter() - start


class Sampler:
    """Context manager that probes the host's speed every INTERVAL_S of wall
    time while its block runs, and once at the end if the block was shorter."""

    def __enter__(self):
        self.samples = []
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(probe())
        return False

    def _sample(self, signum, frame):
        if self._busy:  # a stalled probe outlasted the interval
            return
        self._busy = True
        try:
            self.samples.append(probe())
        finally:
            self._busy = False

    @property
    def probe_s(self) -> float:
        return statistics.harmonic_mean(self.samples)


def at_reference(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s` (harmonic mean), at
    the reference speed."""
    return seconds / probe_s * REFERENCE_S
