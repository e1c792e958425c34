"""CPU speed sampled while the benchmark measures, to rescale its times.

The machine this benchmark was written on is a 2-core VM on a shared host.
Its speed toggles within milliseconds: while a reference kernel normally
takes its usual time, a share of samples run 1.6-1.7 times faster, and that
share drifts with the load of other tenants over minutes.  Experiment wall
times drift with it, by up to a third between runs taken minutes apart,
while the program does the same work.

`Sampler` runs small fixed kernels from a SIGALRM interval timer, in the
thread being measured, so they see the CPU at the same moments as the code
around them.  `ratio()` is the trimmed mean of the kernel times over their
reference times: above 1 when the CPU ran slower than the reference, below 1
when faster.  A time divided by it is the time at reference speed.  The
kernels' own time is kept in `busy` for subtraction from the measured time.
"""

import signal
import time

import numpy as np

# Top share of samples dropped before the mean: samples that an interrupt or
# a page fault lengthened, not the speed of the CPU.
TRIM = 0.05


def python_kernel():
    """Interpreter work: integer and float arithmetic, dict stores."""
    acc = 0.0
    store = {}
    for i in range(1000):
        acc += (i % 7) * 0.5
        store[i & 31] = acc
    return acc


def numpy_kernel():
    """Short NumPy calls on a small vector, as in the program's inner loops."""
    y = np.linspace(0.1, 2.0, 300)
    for _ in range(30):
        y = y + 0.001 * (1.3 - 0.7 * y * y)
    return float(y[0])


# Kernels, in sampling order, with their times at the reference speed: the
# usual (slower) mode of the machine above, sampled inside an experiment
# between stretches of its code.
KERNELS = ((numpy_kernel, 260e-6), (python_kernel, 195e-6))


class Sampler:
    """Context manager: samples the kernels in turn every `interval` s."""

    def __init__(self, interval):
        self.interval = interval
        self.samples = []   # kernel time / its reference time
        self.busy = 0.0     # seconds spent in the kernels

    def _sample(self):
        kernel, reference = KERNELS[len(self.samples) % len(KERNELS)]
        t0 = time.perf_counter()
        kernel()
        took = time.perf_counter() - t0
        self.samples.append(took / reference)
        return took

    def _on_alarm(self, *_):
        self.busy += self._sample()

    def __enter__(self):
        self.samples = []
        self.busy = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than one interval: sample once after
            self._sample()
        return False

    def ratio(self):
        """Trimmed mean of kernel time over reference time."""
        kept = sorted(self.samples)
        kept = kept[:max(1, round(len(kept) * (1.0 - TRIM)))]
        return sum(kept) / len(kept)
