"""Time the three ROADMAP re-anchor probes directly, for comparison with the benchmark.

    python3 benchmarks/baseline.py

Prints the median of ``REPEATS`` timings of each probe, with single-threaded
BLAS as in the benchmark workers:

* ``seesaw(build_maxent(4, 0.1), SeesawConfig(restarts=4, seed=1))``;
* ``classical_max(build_maxent(10, 0.1))``;
* ``correlation_from_quantum(ideal_maxent_strategy(16))`` (the Born rule at d = 16).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import chshd  # noqa: E402

REPEATS = 5


def median_time(fn) -> tuple[float, list[float]]:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


def main() -> None:
    f4, f10 = chshd.build_maxent(4, 0.1), chshd.build_maxent(10, 0.1)
    s16 = chshd.ideal_maxent_strategy(16)
    probes = {
        "seesaw d=4, 4 restarts, seed 1": lambda: chshd.seesaw(f4, chshd.SeesawConfig(restarts=4, seed=1)),
        "classical_max d=10": lambda: chshd.classical_max(f10),
        "Born rule d=16": lambda: chshd.correlation_from_quantum(s16),
    }
    for name, fn in probes.items():
        median, times = median_time(fn)
        print(f"{name:32s} median {median:.4f} s  (runs: {', '.join(f'{t:.4f}' for t in times)})")


if __name__ == "__main__":
    main()
