"""Host-speed calibration: a fixed kernel timed between a run's rounds.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x over minutes, while CPU time stays equal to wall time: the
process is never descheduled, it just runs slower.  Raw timings of the
same code therefore spread far more from run to run than any regression
bound could allow.  The kernel below does a fixed amount of the kind of
work qcontract does (small Hermitian eigensolves, matrix products and
interpreted Python arithmetic) without calling qcontract, so its time
tracks the host's current speed and no change to the library moves it.

A run samples the kernel every CAL_EVERY_S seconds of rounds, and after
the last round; a sample (a moment) is the mean time of CAL_CHUNKS kernel
calls in a row.  The host's speed varies from one kernel call to the
next as well as over minutes, so a moment spans several calls.  The
run's timings are scaled by CAL_REF_S over the mean of its moments: they
are reported in seconds at the reference speed, the speed at which one
kernel call takes CAL_REF_S.  A library change that makes rounds faster
or slower moves the scaled timing by the same factor as the raw one.
"""

from __future__ import annotations

import statistics
import time
from array import array

import numpy as np

#: kernel time at the reference speed; about the median on a 2-vCPU
#: Intel Xeon VM, so scaled timings read close to raw seconds there
CAL_REF_S = 0.02
#: seconds of rounds between two samples
CAL_EVERY_S = 1.0
#: kernel calls per moment
CAL_CHUNKS = 8

_REPS = 25


def _matrices() -> list:
    rng = np.random.default_rng(0xCA1)
    mats = []
    for dim in (2, 3, 4):
        for _ in range(8):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            mats.append(g @ g.conj().T + np.eye(dim))
    return mats


_MATS = _matrices()


def kernel() -> float:
    """A fixed amount of qcontract-like work; returns a checksum."""
    acc = 0.0
    for _ in range(_REPS):
        for m in _MATS:
            w, v = np.linalg.eigh(m)
            x = (v * np.log(w)) @ v.conj().T
            acc += float(np.trace(x @ m).real)
            s = 0.0
            for k in range(40):
                s += k * 0.5
            acc += s
    return acc


class Calibration:
    """Kernel times sampled through a run, one entry per moment."""

    def __init__(self):
        self.moments = array("d")
        kernel()  # the first call pays numpy's lazy set-up

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(CAL_CHUNKS):
            kernel()
        self.moments.append((time.perf_counter() - t0) / CAL_CHUNKS)

    def chunk_s(self) -> float:
        """Mean kernel time of the run, a measure of the host's speed."""
        return statistics.fmean(self.moments)

    def factor(self) -> float:
        """Multiply a raw time by this to get it at the reference speed."""
        return CAL_REF_S / self.chunk_s()
