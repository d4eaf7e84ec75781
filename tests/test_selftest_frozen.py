"""Frozen verifier reports: a seeded battery of correlations and their serialized reports.

The battery covers the plain family at d = 2..16 (the ideal correlation and
two entrywise perturbations of it) and the tilted family at d = 2..8 (the
ideal correlation of seeded random coefficients and a state perturbation of
it, which keeps the table no-signaling).  ``selftest_frozen.json`` holds the
``report_to_dict`` document of each; a refactor of the verifier must keep the
verdicts, the pass flags and the extracted block weights exactly, and every
measured value within 1e-15.

Regenerate the file only when the verifier's output is meant to change::

    PYTHONPATH=src python tests/test_selftest_frozen.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from chshd import (
    Correlation,
    QuantumStrategy,
    build_maxent,
    build_tilted,
    correlation_from_quantum,
    ideal_maxent_correlation,
    ideal_tilted_strategy,
    verify_selftest,
    verify_selftest_tilted,
)
from chshd.serialize import report_to_dict

FROZEN = Path(__file__).with_name("selftest_frozen.json")

#: Largest tolerated change of a measured value.
MEASURED_TOL = 1e-15


def _battery():
    """``(label, report)`` for every case of the frozen battery."""
    for d in range(2, 17):
        f = build_maxent(d, 0.1)
        p = ideal_maxent_correlation(d)
        yield f"plain-d{d}-ideal", verify_selftest(p, f)
        for eps in (1e-4, 1e-9):
            rng = np.random.default_rng([d, int(-np.log10(eps))])
            noisy = Correlation(d=d, table=p.table + eps * rng.standard_normal(p.table.shape))
            yield f"plain-d{d}-{eps:.0e}", verify_selftest(noisy, f)
    for d in range(2, 9):
        rng = np.random.default_rng([100, d])
        c = rng.uniform(0.2, 1.0, d)
        f = build_tilted(c / np.linalg.norm(c), 0.1)
        s = ideal_tilted_strategy(f.tilted_spec)
        yield f"tilted-d{d}-ideal", verify_selftest_tilted(correlation_from_quantum(s), f)
        state = s.state + 1e-5 * (rng.standard_normal(s.state.shape) + 1j * rng.standard_normal(s.state.shape))
        perturbed = QuantumStrategy(
            d=d, dA=d, dB=d, state=state / np.linalg.norm(state),
            alice_pvms=s.alice_pvms, bob_pvms=s.bob_pvms,
        )
        yield f"tilted-d{d}-1e-05", verify_selftest_tilted(correlation_from_quantum(perturbed), f)


def _frozen() -> dict:
    return json.loads(FROZEN.read_text())


def test_battery_covers_both_verdicts_of_both_families():
    verdicts = {doc["verdict"] for doc in _frozen().values()}
    assert verdicts == {"self-tested", "failed", "conjecture-consistent", "inconsistent"}
    assert len(_frozen()) == 15 * 3 + 7 * 2


@pytest.mark.parametrize("label, report", list(_battery()), ids=lambda v: v if isinstance(v, str) else "")
def test_report_matches_frozen(label, report):
    want = _frozen()[label]
    got = json.loads(json.dumps(report_to_dict(report)))
    assert got.keys() == want.keys()
    assert got["weights"] == want["weights"]  # bit for bit
    for key in ("kind", "d", "variant", "bell_value", "bound", "cross_mass", "passed", "verdict"):
        assert got[key] == want[key], key
    assert abs(got["block_deviation"] - want["block_deviation"]) <= MEASURED_TOL
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert (g["passed"], g["tolerance"]) == (w["passed"], w["tolerance"]), g["name"]
        assert abs(g["measured"] - w["measured"]) <= MEASURED_TOL, g["name"]


if __name__ == "__main__":
    docs = {label: report_to_dict(report) for label, report in _battery()}
    FROZEN.write_text(json.dumps(docs, indent=1) + "\n")
    print(f"wrote {len(docs)} reports to {FROZEN}")
