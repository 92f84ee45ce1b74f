"""Machine speed, from a fixed pure-Python loop timed around and during each job.

The reference machine (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11.7,
shared with other tenants) runs the same code up to 1.7 times slower for
one to tens of seconds at a time, on each CPU independently. Every time
the benchmark reports is a measured time scaled to the machine's reference
speed: multiplied by REF_LOOP_S over the median of the loop's times taken
before, during (every INTERVAL_S, from a timer signal) and after the
measurement. The loop runs no program code, so a change to the program
moves a scaled time as much as it moves the measured one; the measured
times are kept in result.json.
"""

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Exact rational arithmetic on numbers of up to 256 bits: the big-integer
# and object churn of mpmath's pure-Python backend and of Fraction
# elimination. Its slowdowns track the jobs' (slope 0.97 of log job time
# on log loop time on certify-float) better than a plain integer loop's do.
LOOP_N = 300
LOOP_MOD = 1 << 256
LOOP_RUNS = 3
# The loop's time on the reference machine at its fast speed.
REF_LOOP_S = 0.0018
INTERVAL_S = 0.2


def loop_once() -> float:
    start = perf_counter()
    acc = Fraction(1, 3)
    for i in range(1, LOOP_N + 1):
        acc = acc * Fraction(i, i + 7) + Fraction(1, i)
        acc = Fraction(acc.numerator % LOOP_MOD, acc.denominator % LOOP_MOD or 1)
    return perf_counter() - start


def loop_seconds() -> float:
    """Median time of LOOP_RUNS runs of the loop."""
    return statistics.median(loop_once() for _ in range(LOOP_RUNS))


class Sampler:
    """Times the loop every INTERVAL_S inside a with block, on the main thread.

    The loop runs in a SIGALRM handler, which Python calls on the main
    thread between bytecodes, so it runs on the CPU that runs the job. (A
    background thread would wake on the idle CPU, whose speed varies
    independently.) The handler takes about 1% of the job's time, the same
    on every commit.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples.append(loop_once())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
