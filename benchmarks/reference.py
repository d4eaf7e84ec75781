"""A fixed reference kernel that measures how fast the host runs right now.

The host the benchmark was tuned on runs identical work at speeds that drift
by a third over seconds to minutes (see README.md, "Noise").  The timed loop
runs this kernel between jobs; each job's latency is then scaled by
``NOMINAL_S / (the kernel's time around the job)``, which expresses it in
seconds of a host on which the kernel takes ``NOMINAL_S``.

The kernel is the benchmark's own code and does not call chshd, so a change
to chshd moves the job times and leaves the kernel alone.  It mixes the two
kinds of work chshd does: a Python loop over small symmetric ``eigh`` calls
and products (the see-saw's and the verifier's shape) and whole-array NumPy
arithmetic (the classical scan's shape).
"""

from __future__ import annotations

import time

import numpy as np

#: Time of one ``run()`` on the machine the benchmark was tuned on (2-vCPU
#: Linux x86_64 VM, Python 3.11, NumPy 2.4 with OpenBLAS, one BLAS thread),
#: between its fast and slow phases (about 19 and 29 ms).
NOMINAL_S = 0.025

_rng = np.random.default_rng(20260417)
_SMALL = [(lambda a: a + a.T)(_rng.standard_normal((6, 6))) for _ in range(64)]
_BIG = _rng.standard_normal(200_000)
_INDEX = _rng.integers(0, _BIG.size, _BIG.size)


def run() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(1000):
        m = _SMALL[k % len(_SMALL)]
        _, vecs = np.linalg.eigh(m)
        acc += float(vecs[:, -1] @ m @ vecs[:, -1])
        for i in range(20):
            acc += i * 0.5
    for _ in range(4):
        x = _BIG[_INDEX] * 1.5 + _BIG
        acc += float(x.max()) + float(np.sort(x[:50_000])[0])
    return time.perf_counter() - start
