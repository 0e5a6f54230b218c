"""A frozen reference computation that gauges the machine's current speed.

On a shared host the CPU runs the same code at speeds up to about 1.6×
apart, changing within milliseconds and in phases of up to minutes (see
README.md, Noise).  Every time the benchmark reports is divided by the
machine's speed at that moment, as read by this reference, run right
before and right after each timed call: a fixed pure-Python P-192
double-and-add, the kind of work that dominates the program.  A time
then reads as milliseconds *at reference speed*: the time the call
would take on a machine where one reference chunk takes
``REF_NOMINAL_S``.

The reference lives here, not in ``src/avcs``, so no change to the
program can move it.
"""

from __future__ import annotations

import hashlib
import time
from statistics import fmean, median

# P-192 (a = -3) and its base point
_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF
_GX = 0x188DA80EB03090F67CBF20EB43A18800F4FF0AFD82FF1012
_GY = 0x07192B95FFC8DA78631011ED6B24CDD573F977A11E794811
# one chunk: a multiplication by this fixed 96-bit scalar, short next to
# the calls it gauges
_SCALAR = int.from_bytes(hashlib.sha256(b"perfbench reference").digest()[:12], "big")

REF_NOMINAL_S = 0.0006  # one chunk at reference speed
HALF = 2                # a time is scaled by the chunks on each side of it


def reference_mul(k: int) -> int:
    """x coordinate of k*G on P-192, by Jacobian double-and-add."""
    p = _P
    X, Y, Z = 1, 1, 0
    dX, dY, dZ = _GX, _GY, 1
    while k:
        if k & 1:
            if not Z:
                X, Y, Z = dX, dY, dZ
            else:
                Z1Z1 = Z * Z % p
                Z2Z2 = dZ * dZ % p
                U1 = X * Z2Z2 % p
                S1 = Y * dZ * Z2Z2 % p
                H = (dX * Z1Z1 - U1) % p
                R = (dY * Z * Z1Z1 - S1) % p
                HH = H * H % p
                HHH = H * HH % p
                V = U1 * HH % p
                X = (R * R - HHH - 2 * V) % p
                Y = (R * (V - X) - S1 * HHH) % p
                Z = Z * dZ * H % p
        YY = dY * dY % p
        S = 4 * dX * YY % p
        ZZ = dZ * dZ % p
        M = 3 * (dX * dX - ZZ * ZZ) % p
        X2 = (M * M - 2 * S) % p
        dZ = 2 * dY * dZ % p
        dY = (M * (S - X2) - 8 * YY * YY) % p
        dX = X2
        k >>= 1
    zinv = pow(Z, -1, p)
    return X * zinv * zinv % p


def reference_chunk() -> float:
    """Seconds one chunk of the reference takes now."""
    start = time.perf_counter()
    reference_mul(_SCALAR)
    return time.perf_counter() - start


class SpeedGauge:
    """Reference chunk times read between the measured calls.

    A time measured after ``k`` readings lies between chunk ``k - 1``
    and chunk ``k``.  Its factor is ``REF_NOMINAL_S`` ÷ the median of
    the ``HALF`` chunks on each side, so a change of speed shows in the
    factor of the very call it slowed, and one disturbed chunk does not.
    Multiplying a measured time by its factor gives the time at
    reference speed.  ``read`` returns the seconds it spent, which
    callers keep out of every wall time they report.
    """

    def __init__(self, chunk=reference_chunk):
        self._chunk = chunk
        self.chunks: list[float] = []
        self.spent_s = 0.0

    @property
    def readings(self) -> int:
        return len(self.chunks)

    def read(self, chunks: int = 1) -> float:
        """Run ``chunks`` reference chunks now; returns the seconds spent."""
        start = time.perf_counter()
        for _ in range(chunks):
            self.chunks.append(self._chunk())
        spent = time.perf_counter() - start
        self.spent_s += spent
        return spent

    def factor_at(self, k: int) -> float:
        return REF_NOMINAL_S / median(self.chunks[max(0, k - HALF) : k + HALF])

    def mean_factor(self, first: int, last: int) -> float:
        """Factor of a wall that began after ``first`` readings and ended after ``last``."""
        return fmean(self.factor_at(k) for k in range(first, last + 1))


class NoGauge:
    """Raw times: factor 1, no reference work.  Used where speed does not matter."""

    readings = 0
    spent_s = 0.0

    def read(self, chunks: int = 1) -> float:
        return 0.0

    def factor_at(self, k: int) -> float:
        return 1.0

    def mean_factor(self, first: int, last: int) -> float:
        return 1.0
