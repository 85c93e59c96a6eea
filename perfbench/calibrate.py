"""A fixed calibration kernel that tracks how fast the machine is now.

The benchmark's host is shared: other tenants change its speed by up to
a factor of two, in spells that last from seconds to minutes, and every
kind of work slows together.  The kernel runs after every task.  A
task's wall time divided by the median time of the ``WINDOW`` kernel
passes before it and the ``WINDOW`` after it cancels that factor; the
median keeps a single slow pass from moving the quotient.  Multiplied by
``REF_S``, the kernel's median time on the machine named in README.md,
the quotient reads as seconds on that machine.

The kernel does on one thread what the workloads do most: an
interpreted loop, then many small matrix-vector products with an
elementwise function.  A part that used OpenBLAS threads or streamed a
large array tracked the workloads worse, because its own time jumped
when the other vCPU was busy.  The kernel is part of the benchmark, not
of reconbound, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

REF_S = 0.0105      # median kernel time on the reference machine (README.md)
WINDOW = 5          # kernel passes on each side of a timed interval


class Kernel:
    """Builds its inputs once; each call returns one timed pass."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.matrix = rng.standard_normal((300, 300))
        self.vector = rng.standard_normal(300)
        self()                                              # first-call costs

    def __call__(self) -> float:
        np = self.np
        start = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        v = self.vector
        for _ in range(300):
            v = np.tanh(self.matrix @ v)
        return time.perf_counter() - start
