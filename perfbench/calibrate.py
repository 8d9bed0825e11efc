"""A fixed reference kernel that rescales timings to a nominal host speed.

The host this benchmark was written on shares its cores with other tenants.
Its speed drifts by up to half over tens of seconds, and the drift moves
plain timings from run to run far more than any bound worth having.  The
drift slows this kernel and qwalk alike: over 10 s windows, the ratio of an
`em_step_2d` loop to this kernel stayed within 2 % while the loop's own time
moved by 45 %.  So the benchmark runs one chunk of this kernel around its
timed work and reports time × NOMINAL_CHUNK_S / (chunk time).

The kernel does not use qwalk, so a change to qwalk cannot move it.  It
mixes what the workloads do: elementwise numpy on a 512 KiB complex array
(exp, a shifted multiply, a 2x2 einsum) and a short pure-Python loop.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# a round figure near one chunk's median time on the host described in
# NOTES.md; a nominal second is a second of work at that speed
NOMINAL_CHUNK_S = 0.007

_COIN = np.array([[0.6, 0.8j], [0.8j, 0.6]])


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.state = rng.normal(size=(128, 128, 2)) + 1j * rng.normal(size=(128, 128, 2))
        self.phase = np.empty_like(self.state)
        self.out = np.empty_like(self.state)
        self.chunk()

    def chunk(self) -> float:
        """Time of one fixed unit of reference work, in seconds.

        The kernel writes into buffers it owns, so its time does not depend on
        what the allocator holds after a workload's pass.
        """
        x, phase, out = self.state, self.phase, self.out
        t0 = perf_counter()
        for _ in range(4):
            np.multiply(x.real, 1j, out=phase)
            np.exp(phase, out=phase)
            np.multiply(x[:-1], phase[1:], out=out[1:])  # shift by one row
            np.multiply(x[-1], phase[0], out=out[0])
            np.einsum("ab,...b->...a", _COIN, out, out=phase)
            total = 0
            for k in range(3000):
                total += k
        return perf_counter() - t0

    def scale(self, chunks) -> float:
        """Factor that turns a time measured beside `chunks` into nominal seconds."""
        return NOMINAL_CHUNK_S / statistics.median(chunks)
