"""Host-speed calibration for the csmod benchmark.

The host's speed drifts by up to 1.7x over tens of seconds: a fixed
pure-Python loop measured here took between 55 and 95 ms.  Every round
of operations is therefore accompanied by samples of a fixed reference
computation, and its times are reported in calibrated seconds,
seconds * REF_NOMINAL_S / (median reference sample): the time the work
would take on a host where the reference takes exactly REF_NOMINAL_S.

The reference is a smallest-prime-factor sieve to 300000 in plain Python
lists.  Of the references tried (a Fraction loop, sieves to 60000, 300000
and 10^6, and a Fraction/sieve mix), the two larger sieves tracked the
speed of count, sigma and series operations best: they cut the variation
of single operations from 15-21 % to 10-12 %.
It is benchmark code and does not call csmod, so a change to csmod
cannot move it.
"""

import math
import time

REF_SIEVE_LIMIT = 300000
REF_NOMINAL_S = 0.025
# one reference sample per this many seconds of timed work, at least two
# per gap, so that long operations get as many samples as short ones
SAMPLE_EVERY_S = 0.25


def _sieve(n):
    spf = list(range(n + 1))
    for i in range(2, math.isqrt(n) + 1):
        if spf[i] == i:
            for j in range(i * i, n + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def reference_samples(work_seconds=0.0):
    """Timings of the reference computation, about 25 ms each, to follow
    `work_seconds` of timed work."""
    count = max(2, math.ceil(work_seconds / SAMPLE_EVERY_S))
    out = []
    for _ in range(count):
        started = time.perf_counter()
        _sieve(REF_SIEVE_LIMIT)
        out.append(time.perf_counter() - started)
    return out


def scale(reference):
    """Factor from seconds to calibrated seconds, given the median
    reference sample measured next to the work."""
    return REF_NOMINAL_S / reference
