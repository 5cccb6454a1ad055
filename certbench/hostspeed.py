"""Host-speed probe: how fast this machine runs Python right now.

The guest this benchmark was written on shares its cores with other guests,
and its speed swings by up to 1.7x in phases that last from seconds to
whole runs.  Steal time stays under 1% and process CPU time equals wall
time, so neither a CPU clock nor a longer run removes the swing.

A probe times one call of a fixed pure-Python kernel (integer row
reduction on a small matrix, then tuple-keyed dict updates) that uses
nothing of the library.  The benchmark probes once before each
certificate and once after the last one, so the kernel runs with the
caches as the previous certificate left them, like the certificate does.
A certificate's host factor is the median of the probes near it over
REFERENCE_S; its latency divided by that factor is its latency at the
reference speed.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

# About the probe time of the kernel on the machine the baselines were taken
# on (a 2-vCPU "Intel(R) Xeon(R) Processor" guest, Python 3.11.7).  It only
# sets the scale of the reported times: a time at the reference speed is what
# the raw time reads while a probe takes REFERENCE_S seconds.
REFERENCE_S = 0.45e-3
# A certificate's factor is the median of the probes at most WINDOW
# certificates before it or after it.
WINDOW = 5


def kernel():
    n = 14
    m = [[(i * 7 + j * 3) % 11 - 5 for j in range(n)] for i in range(n)]
    for p in range(n):
        piv = m[p][p] or 1
        row = m[p]
        for r in range(p + 1, n):
            f = m[r][p]
            if f:
                m[r] = [a * piv - f * b for a, b in zip(m[r], row)]
                g = 0
                for x in m[r]:
                    g = math.gcd(g, x)
                if g > 1:
                    m[r] = [x // g for x in m[r]]
    d = {}
    for i in range(600):
        d[(i % 37, i % 11, i)] = d.get((i % 37, i % 11, i - 1), 0) + 1
    return len(d)


def probe():
    """Seconds of one kernel call."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def factors(probes):
    """Host factor of each certificate of a pass, from the pass's probes:
    probes[i] ran just before certificate i, probes[-1] after the last."""
    return [statistics.median(probes[max(0, i - WINDOW): i + WINDOW + 2])
            / REFERENCE_S for i in range(len(probes) - 1)]
