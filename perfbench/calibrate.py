"""Machine-speed calibration for the end-to-end times.

The benchmark was tuned on a shared 2-CPU virtual machine whose speed
drifts by up to 2x, in phases of seconds to minutes, with the load of
other tenants.  Raw wall times of identical runs then spread far beyond
any useful bound.  A fixed loop of stdlib Fraction arithmetic, which uses
nothing of varred, slows down with the machine much as varred does; a
plain integer loop tracked it less well.  The loop is timed at the start
and end of every timed interval and every SAMPLE_S seconds inside it, and
the interval is reported as

    seconds * REFERENCE_S / (mean loop time)

that is, scaled to a machine on which the loop takes REFERENCE_S.  The
time spent in the loop inside the interval is not counted.  A change to
varred moves the scaled time as it moves the raw time; a change of
machine speed moves both the interval and the loop.  The raw times are
kept next to the scaled ones in perfbench/out/results.jsonl.
"""

import signal
import statistics
import time
from fractions import Fraction

# about the loop's time on the 2-CPU Intel Xeon (2.1 GHz) the benchmark was
# tuned on; never change it, or scaled times stop being comparable
REFERENCE_S = 0.015
SAMPLE_S = 0.25
_THREE_QUARTERS = Fraction(3, 4)
_CAP = 10 ** 40


def _loop():
    """Fixed exact-rational work: stdlib Fraction arithmetic, as in varred's
    default backend, but none of varred's code."""
    acc = Fraction(0)
    for i in range(1, 2500):
        acc = acc * _THREE_QUARTERS + Fraction(i, i + 7)
        if acc.denominator > _CAP:
            acc = Fraction(acc.numerator % 1000, 7)
    return acc


def loop_seconds():
    """Seconds of one run of the calibration loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class Sampled:
    """Context manager timing an interval with the loop sampled inside it.

    Unless `inside` is false, a SIGALRM timer runs the loop every SAMPLE_S
    seconds of the interval.  After exit, `raw_s` is the interval's wall
    time without the loop runs and `scaled_s` the same time scaled to
    REFERENCE_S.
    """

    def __init__(self, inside=True):
        self.inside = inside

    def __enter__(self):
        self.samples = [loop_seconds()]
        self.spent = 0.0
        if self.inside:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self.t0 = time.perf_counter()
        return self

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(loop_seconds())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.t0
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(loop_seconds())
        self.raw_s = elapsed - self.spent
        self.scaled_s = self.raw_s * REFERENCE_S / statistics.mean(self.samples)
        return False
