"""Exact classical optimization: oracle cross-checks and known optima."""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chshd import (
    CrossDiagonalMode,
    DeterministicStrategy,
    EnumerationCapError,
    InputError,
    build_maxent,
    build_tilted,
    classical_max,
    classical_reference_bound,
    classical_value_of,
    correlation_from_deterministic,
    evaluate,
)

from chshd.cli import main

from oracles import brute_force_classical

TOL = 1e-12
EXACT_EVEN = {2: 2.0, 4: 4.0, 6: 4.0, 8: 4.0}


def test_classical_value_matches_evaluate_on_assignments():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        f = build_maxent(d, 0.25)
        for _ in range(20):
            s = DeterministicStrategy(
                fA=tuple(int(v) for v in rng.integers(0, d, size=3)),
                fB=tuple(int(v) for v in rng.integers(0, d, size=4)),
            )
            direct = classical_value_of(f, s)
            via_table = evaluate(f, correlation_from_deterministic(s, d))
            assert abs(direct - via_table) < TOL


@pytest.mark.parametrize("d", [2, 3])
def test_classical_max_matches_brute_force_oracle(d):
    f = build_maxent(d, 0.1)
    res = classical_max(f)
    best, argmax = brute_force_classical(f.coeff, d)
    assert abs(res.value - best) < TOL
    assert [(s.fA, s.fB) for s in res.argmax] == argmax
    assert res.strategies_scanned == d ** 7


@pytest.mark.parametrize("d,expected", sorted(EXACT_EVEN.items()))
def test_classical_even_dimensions_hit_reference_bound(d, expected):
    res = classical_max(build_maxent(d, 0.1))
    assert abs(res.value - expected) < TOL
    assert abs(res.reference_bound - expected) < TOL
    assert res.note is None


def test_classical_argmax_counts_frozen():
    counts = {2: 64, 3: 8, 4: 64, 5: 8, 6: 96, 7: 8, 8: 128}
    for d, n in counts.items():
        res = classical_max(build_maxent(d, 0.1))
        assert len(res.argmax) == n, d


def test_classical_argmax_is_lexicographically_sorted():
    res = classical_max(build_maxent(4, 0.1))
    keys = [s.fA + s.fB for s in res.argmax]
    assert keys == sorted(keys)


def test_classical_d3_exceeds_reference_bound():
    """At d=3 the exact optimum sits strictly above 2(1 + 1) = 4."""
    f = build_maxent(3, 0.1)
    res = classical_max(f)
    best, _ = brute_force_classical(f.coeff, 3)
    assert abs(res.value - best) < TOL
    assert res.value >= 2 + 2 * math.sqrt(2) - 1e-9
    witness = DeterministicStrategy(fA=(2, 2, 2), fB=(2, 2, 2, 2))
    assert witness in res.argmax
    assert res.note is not None and "reference" in res.note
    assert res.value > classical_reference_bound(3)


def test_classical_d3_witness_value_is_constant_output():
    """The all-2 assignment collects the full odd-dimension bonus on one side."""
    f = build_maxent(3, 0.1)
    s = DeterministicStrategy(fA=(2, 2, 2), fB=(2, 2, 2, 2))
    assert classical_value_of(f, s) == pytest.approx(2 + 2 * math.sqrt(2), abs=TOL)


def test_enumeration_cap_raises_before_scanning():
    with pytest.raises(EnumerationCapError) as exc:
        classical_max(build_maxent(3, 0.1), cap=2)
    assert exc.value.d == 3 and exc.value.cap == 2 and exc.value.count == 3 ** 7


def test_enumeration_cap_default_rejects_d11():
    f = build_maxent(11, 0.1)
    with pytest.raises(EnumerationCapError):
        classical_max(f)


@pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 6, math.pi / 4])
def test_tilted_d2_classical_value(theta):
    alpha = 2 * math.cos(2 * theta) / math.sqrt(1 + math.sin(2 * theta) ** 2)
    expected = (2 + alpha) / math.sqrt(8 + 2 * alpha ** 2)
    f = build_tilted((math.cos(theta), math.sin(theta)), 0.1)
    res = classical_max(f)
    assert abs(res.value - expected) < TOL


def test_tilted_pi_over_8_classical_value_frozen():
    f = build_tilted((math.cos(math.pi / 8), math.sin(math.pi / 8)), 0.1)
    assert classical_max(f).value == pytest.approx(0.9659258262890683, abs=TOL)


def test_classical_runtime_is_reasonable_at_d8():
    import time

    f = build_maxent(8, 0.1)
    start = time.perf_counter()
    res = classical_max(f)
    elapsed = time.perf_counter() - start
    assert res.strategies_scanned == 8 ** 7
    assert elapsed < 60.0


TILTED3 = (0.6, 0.64, 0.48)


@pytest.mark.parametrize(
    "f",
    [build_maxent(d, 0.0, mode, allow_zero_epsilon=True) for d in (2, 3) for mode in CrossDiagonalMode]
    + [build_tilted(TILTED3, eps, allow_zero_epsilon=True) for eps in (0.0, 0.1)],
    ids=lambda f: f"{f.variant.value}-d{f.d}-eps{f.epsilon}-{f.mode.value}",
)
def test_classical_max_matches_brute_force_oracle_with_ties(f):
    """Tie-heavy cases: without the cross penalty many assignments share the maximum."""
    res = classical_max(f)
    best, argmax = brute_force_classical(f.coeff, f.d)
    assert abs(res.value - best) < TOL
    assert [(s.fA, s.fB) for s in res.argmax] == argmax


FROZEN = json.loads(
    (Path(__file__).resolve().parent.parent / "benchmarks" / "classical_frozen.json").read_text()
)["values"]


def _frozen_functional(key):
    """Rebuild the functional a frozen key names (tilted entries were frozen at epsilon 0.1)."""
    kind, rest = key.split(":", 1)
    if kind == "tilted":
        return build_tilted([float(v) for v in rest.split(",")], 0.1)
    d, eps = rest.split(":")
    return build_maxent(int(d), float(eps), allow_zero_epsilon=True)


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_classical_max_reproduces_frozen_results(key):
    res = classical_max(_frozen_functional(key))
    listing = json.dumps([[list(s.fA), list(s.fB)] for s in res.argmax], separators=(",", ":"))
    want = FROZEN[key]
    assert res.value == want["value"]
    assert len(res.argmax) == want["argmax_count"]
    assert hashlib.sha256(listing.encode()).hexdigest() == want["argmax_sha256"]


def test_argmax_entries_match_publicly_built_strategies():
    res = classical_max(build_maxent(3, 0.0, allow_zero_epsilon=True))
    assert len(res.argmax) > 1
    for s in res.argmax:
        public = DeterministicStrategy(fA=s.fA, fB=s.fB)
        assert type(s) is DeterministicStrategy
        assert all(type(v) is int for v in s.fA + s.fB)
        assert s == public and hash(s) == hash(public) and repr(s) == repr(public)
    assert len(set(res.argmax)) == len(res.argmax)


@pytest.mark.parametrize("tie_tol", [math.nan, -1.0, math.inf])
def test_classical_max_refuses_tie_tolerance_outside_zero_to_infinity(tie_tol):
    with pytest.raises(InputError, match="tie_tol"):
        classical_max(build_maxent(3, 0.1), tie_tol=tie_tol)


def test_classical_max_accepts_zero_tie_tolerance():
    res = classical_max(build_maxent(3, 0.0, allow_zero_epsilon=True), tie_tol=0.0)
    assert len(res.ties) >= 1 and res.value == classical_max(build_maxent(3, 0.0, allow_zero_epsilon=True)).value


def test_classical_scan_over_memory_budget_exits_2_before_allocating(capsys):
    # 4 * 32 * 54**4 bytes of row tensor and gathers, just above the 1 GiB budget.
    tracemalloc.start()
    try:
        code = main(["classical", "--d", "54", "--cap", "54"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "the classical scan at d=54" in capsys.readouterr().err
    assert peak < 20 * 2**20
