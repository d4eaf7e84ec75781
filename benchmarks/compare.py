"""Compare the per-job result summaries of two benchmark runs of the same workload and seed.

    python3 benchmarks/compare.py OLD.jsonl NEW.jsonl

Each run writes ``.bench_work/jobs-<workload>-seed<n>-trace<t>.jsonl``, one
record per job.  Jobs are matched by id (a faster commit runs more jobs, so
only the jobs both runs completed are compared) and compared at the ROADMAP
tolerances:

* see-saw best values within 1e-9, identical iteration counts;
* classical values, argmax counts and argmax digests exactly;
* verify verdicts exactly, values within 1e-9.

Exits 1 and lists the differences when any matched job disagrees.
"""

from __future__ import annotations

import json
import math
import sys

SEESAW_TOL = 1e-9
VALUE_TOL = 1e-9

#: field -> tolerance (None: must be equal).
FIELDS = {
    "ok": None,
    "hit": None,
    "best_value": SEESAW_TOL,
    "iterations": None,
    "converged": None,
    "value": VALUE_TOL,
    "argmax_count": None,
    "argmax_sha256": None,
    "values": None,
    "argmax_counts": None,
    "verdict": None,
    "code": None,
    "signs": None,
    "lhs": VALUE_TOL,
}


def load(path: str) -> dict[str, dict]:
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    # traced runs repeat the window; the first pass stands for the job
    out: dict[str, dict] = {}
    for record in records:
        out.setdefault(record["job"], record)
    return out


def differences(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    found = []
    for job in sorted(old.keys() & new.keys()):
        a, b = old[job], new[job]
        for field, tol in FIELDS.items():
            if field not in a and field not in b:
                continue
            x, y = a.get(field), b.get(field)
            # "key" marks a classical result, whose value must repeat exactly
            if tol is None or "key" in a or not isinstance(x, float):
                same = x == y
            else:
                same = isinstance(y, float) and math.isclose(x, y, rel_tol=0.0, abs_tol=tol)
            if not same:
                found.append(f"{job}: {field} {x!r} -> {y!r}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    common = old.keys() & new.keys()
    found = differences(old, new)
    print(f"{len(common)} jobs in both runs ({len(old)} and {len(new)} in each); {len(found)} differences")
    for line in found:
        print("  " + line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
