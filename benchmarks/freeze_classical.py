"""Regenerate ``classical_frozen.json``: the expected results of every classical job.

The classical workload compares each job's value, argmax count and argmax
digest with this file exactly, so that a later change to the classical scan
must reproduce the results of the commit that froze them.  Run it only to
re-freeze on purpose:

    python3 benchmarks/freeze_classical.py

Values for d <= 4 are cross-checked against ``tests/oracles.py`` before the
file is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import chshd  # noqa: E402
from workloads import EPS_GRID, FROZEN_PATH, argmax_digest, frozen_key, load_oracles  # noqa: E402

TILTED6_SETS = 6


def entry(f) -> dict:
    result = chshd.classical_max(f)
    argmax = [{"fA": list(s.fA), "fB": list(s.fB)} for s in result.argmax]
    return {"value": result.value, "argmax_count": len(argmax), "argmax_sha256": argmax_digest(argmax)}


def main() -> None:
    oracles = load_oracles()
    values = {}
    for d in range(2, 11):
        for eps in EPS_GRID:
            f = chshd.build_maxent(d, eps)
            values[frozen_key("maxent", d, eps)] = entry(f)
            if d <= 4:
                best, argmax = oracles.brute_force_classical(f.coeff, d)
                result = chshd.classical_max(f)
                got = [(s.fA, s.fB) for s in result.argmax]
                if abs(best - result.value) > 1e-12 or got != argmax:
                    raise SystemExit(f"d={d}, eps={eps}: classical_max disagrees with the oracle")
    values[frozen_key("maxent", 8, 0.0)] = entry(chshd.build_maxent(8, 0.0, allow_zero_epsilon=True))
    rng = np.random.default_rng(2018)
    tilted = []
    for _ in range(TILTED6_SETS):
        c = rng.uniform(0.5, 1.5, 6)
        c = [float(v) for v in c / np.linalg.norm(c)]
        tilted.append(c)
        values[frozen_key("tilted", 6, 0.1, c)] = entry(chshd.build_tilted(c, 0.1))
    doc = {"tilted6_coefficients": tilted, "values": values}
    FROZEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(values)} frozen results to {FROZEN_PATH.name}")


if __name__ == "__main__":
    main()
