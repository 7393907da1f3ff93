"""Host-speed reference: a fixed kernel, independent of the package.

The benchmark runs on two virtual CPUs of a shared host, whose speed swings
by up to half within seconds, and by a third between minutes, as other
tenants load it.  A scenario timed alone carries those swings into its
metric.  So ``run.py`` runs this kernel after each scenario, for a fixed
share of the scenario's time, and scales the scenarios' mean time by
``REF_S`` over the kernel's mean time per pass in the same run: a host
running at half speed doubles both, and the scaled time stays.  Both means
are taken over the whole run; sampled in the same proportion, both see the
same mix of fast and slow spells.  On a 2-vCPU Intel Xeon VM, ten runs of
the forward workload spread 11% of their median unscaled and 4% scaled.
For the inverse workloads, whose 12-15 s scenarios fit two or three to a
40 s run, the kernel's own noise is of the size of the drift it removes,
and ten runs spread 12-14% either way.

The kernel runs alone, so it measures the host, not its own interference
with a scenario: a sampler timed in a second process while scenarios ran
slowed with its neighbour and over-corrected.  It does the kinds of work the
package does (interpreter loops with float formatting, dense solves on the
solver's matrix size, short numpy vector updates) but calls none of its
code, so a change to the package moves the scaled time fully.
"""

import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# Seconds per kernel pass that scaled times refer to: about the kernel's
# fast passes on a 2-vCPU Intel Xeon VM with one BLAS thread.
REF_S = 0.013

_N = 99
_RNG = np.random.default_rng(20240201)
_A = np.eye(_N) + 0.01 * _RNG.standard_normal((_N, _N))
_LU = lu_factor(_A)
_R = _RNG.standard_normal(_N)


def kernel():
    """One pass of the reference work; returns a checksum of its results."""
    table = {}
    items = []
    total = 0.0
    for i in range(3000):
        table[i & 1023] = total
        items.append(str(total)[:4])
        total += (i * i) % 7 * 0.5
    for k in range(15):
        total += np.linalg.solve(_A + np.diag(_R * (1e-3 * k)), _R)[0]
    v = _R.copy()
    for _ in range(300):
        v = lu_solve(_LU, 0.5 * v + 1e-3 * (v @ _A))
    return total + len(items) + float(v[0])


def run_for(seconds, min_passes=3):
    """Run kernel passes for about ``seconds``: (passes, elapsed seconds)."""
    passes = 0
    t0 = time.perf_counter()
    while True:
        kernel()
        passes += 1
        elapsed = time.perf_counter() - t0
        if passes >= min_passes and elapsed >= seconds:
            return passes, elapsed
