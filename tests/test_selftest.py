"""Structural self-test verification: extraction, checks, and perturbations."""

import math

import numpy as np
import pytest

from chshd import (
    Correlation,
    CrossTermMassError,
    InputError,
    QuantumStrategy,
    UndefinedBlockError,
    block_answer_pairs,
    block_correlation,
    build_maxent,
    build_tilted,
    chsh_m_value,
    chsh_prime_m_value,
    correlation_from_quantum,
    cross_mass,
    extract_block_weights,
    ideal_chsh_block,
    ideal_maxent_correlation,
    ideal_tilted_correlation,
    n_blocks,
    validate_strategy,
    verify_selftest,
    verify_selftest_tilted,
)
from chshd.functionals import PLAIN_QUESTIONS
from chshd.ideal import embed_pair

from oracles import random_unitary

SQRT2 = math.sqrt(2.0)
CHECK_NAMES = (
    "attains_bound",
    "cross_terms_vanish",
    "blocks_saturate",
    "block_weights_match",
    "block_shape_matches",
    "matches_ideal_correlation",
)


# ---------------------------------------------------------------------------
# cross mass and weight extraction
# ---------------------------------------------------------------------------


def uniform_correlation(d):
    return Correlation(d=d, table=np.full((3, 4, d, d), 1.0 / d**2))


def test_cross_mass_uniform_d4():
    assert cross_mass(uniform_correlation(4)) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_cross_mass_vanishes_on_ideal(d):
    assert cross_mass(ideal_maxent_correlation(d)) < 1e-12


def test_extract_block_weights_ideal_d4():
    bw = extract_block_weights(ideal_maxent_correlation(4))
    assert bw.w == pytest.approx((0.5, 0.5), abs=1e-12)
    assert bw.w_prime == pytest.approx((0.5, 0.5), abs=1e-12)
    assert bw.leftover == ()
    assert bw.consistency_residual < 1e-12


def test_extract_block_weights_ideal_d7():
    bw = extract_block_weights(ideal_maxent_correlation(7))
    assert bw.w == pytest.approx((2 / 7,) * 3, abs=1e-12)
    assert bw.w_prime == pytest.approx((2 / 7,) * 3, abs=1e-12)
    assert bw.leftover == pytest.approx((1 / 7, 1 / 7), abs=1e-12)
    assert bw.consistency_residual < 1e-12


def test_extract_block_weights_single_block():
    table = np.zeros((3, 4, 4, 4))
    table[:, :, 0, 0] = 1.0
    bw = extract_block_weights(Correlation(d=4, table=table))
    assert bw.w == (1.0, 0.0)
    assert bw.w_prime == (0.0, 1.0)  # answer 0 sits in the wrapped primed block
    assert bw.consistency_residual == 0.0


def test_extract_block_weights_refuses_large_cross_mass():
    with pytest.raises(CrossTermMassError) as exc:
        extract_block_weights(uniform_correlation(4))
    assert exc.value.mass == pytest.approx(4.0, abs=1e-12)
    assert exc.value.tol == pytest.approx(1e-7)


def test_extract_block_weights_inf_tol_bypasses_guard():
    bw = extract_block_weights(uniform_correlation(4), tol=math.inf)
    assert bw.w == pytest.approx((0.25, 0.25), abs=1e-12)


# ---------------------------------------------------------------------------
# block correlations
# ---------------------------------------------------------------------------


def test_block_correlation_of_ideal_matches_qubit_chsh():
    p = ideal_maxent_correlation(4)
    ref = ideal_chsh_block().table
    for m in (0, 1):
        assert np.max(np.abs(block_correlation(p, m).table - ref)) < 1e-9
        assert np.max(np.abs(block_correlation(p, m, primed=True).table - ref)) < 1e-9


def test_block_correlation_of_uniform_is_uniform():
    block = block_correlation(uniform_correlation(4), 0)
    assert np.max(np.abs(block.table - 0.25)) < 1e-12


def test_block_correlation_empty_block_raises():
    table = np.zeros((3, 4, 4, 4))
    table[:, :, 0, 0] = 1.0
    p = Correlation(d=4, table=table)
    with pytest.raises(UndefinedBlockError):
        block_correlation(p, 1)


def test_block_correlation_index_range():
    with pytest.raises(InputError):
        block_correlation(ideal_maxent_correlation(4), 2)
    with pytest.raises(InputError):
        block_correlation(ideal_maxent_correlation(4), -1)


def test_ideal_chsh_block_frozen_entries():
    t = ideal_chsh_block().table
    assert t[0, 0, 0, 0] == pytest.approx((1 + 1 / SQRT2) / 4, abs=1e-12)
    assert t[1, 1, 0, 0] == pytest.approx((1 - 1 / SQRT2) / 4, abs=1e-12)
    assert ideal_chsh_block() is ideal_chsh_block()


# ---------------------------------------------------------------------------
# verification of ideal correlations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", list(range(2, 9)))
def test_verify_selftest_passes_on_ideal(d):
    f = build_maxent(d, 0.1)
    report = verify_selftest(ideal_maxent_correlation(d), f)
    assert report.passed and report.verdict == "self-tested"
    assert tuple(c.name for c in report.checks) == CHECK_NAMES
    assert all(c.passed for c in report.checks)
    assert report.bell_value == pytest.approx(report.bound, abs=1e-9)
    assert report.cross_mass < 1e-12
    assert report.d == d


def test_verify_selftest_rejects_tilted_functional():
    f = build_tilted((0.8, 0.6), 0.1)
    with pytest.raises(InputError):
        verify_selftest(ideal_maxent_correlation(2), f)
    with pytest.raises(InputError):
        verify_selftest_tilted(ideal_maxent_correlation(2), build_maxent(2, 0.1))


def test_verify_selftest_rejects_dimension_mismatch():
    with pytest.raises(InputError):
        verify_selftest(ideal_maxent_correlation(3), build_maxent(4, 0.1))


# ---------------------------------------------------------------------------
# perturbation fixtures: each tampering trips its own check
# ---------------------------------------------------------------------------


def cross_injected_correlation(d=4, delta=1e-3):
    """Ideal table with mass injected on one penalized cross entry."""
    table = ideal_maxent_correlation(d).table.copy()
    table[0, 0, 0, 2] += delta
    table[0, 0] /= table[0, 0].sum()
    return Correlation(d=d, table=table)


def weight_skewed_correlation():
    """Ideal d=4 blocks rescaled to weights (0.6, 0.4) on the plain side."""
    table = ideal_maxent_correlation(4).table.copy()
    for x, y in PLAIN_QUESTIONS:
        table[x, y, 0:2, 0:2] *= 1.2
        table[x, y, 2:4, 2:4] *= 0.8
    return Correlation(d=4, table=table)


def classical_block_correlation():
    """Ideal d=4 with plain block 0 replaced by a deterministic CHSH-2 block."""
    table = ideal_maxent_correlation(4).table.copy()
    for x, y in PLAIN_QUESTIONS:
        table[x, y, 0:2, 0:2] = 0.0
        table[x, y, 0, 0] = 0.5
    return Correlation(d=4, table=table)


def test_cross_injection_fails_bound_and_cross_checks():
    report = verify_selftest(cross_injected_correlation(), build_maxent(4, 0.1))
    assert not report.passed and report.verdict == "failed"
    assert not report.check("attains_bound").passed
    assert not report.check("cross_terms_vanish").passed
    assert report.cross_mass == pytest.approx(1e-3, rel=1e-2)


def test_weight_skew_fails_only_weight_and_ideal_checks():
    report = verify_selftest(weight_skewed_correlation(), build_maxent(4, 0.1))
    assert not report.passed
    assert report.check("attains_bound").passed
    assert report.check("cross_terms_vanish").passed
    assert report.check("blocks_saturate").passed
    assert not report.check("block_weights_match").passed
    assert report.check("block_shape_matches").passed
    assert not report.check("matches_ideal_correlation").passed
    assert report.weights.w == pytest.approx((0.6, 0.4), abs=1e-12)


def test_classical_block_fails_value_saturation_and_shape():
    report = verify_selftest(classical_block_correlation(), build_maxent(4, 0.1))
    assert not report.passed
    assert not report.check("attains_bound").passed
    assert report.check("cross_terms_vanish").passed
    assert not report.check("blocks_saturate").passed
    assert report.check("block_weights_match").passed
    assert not report.check("block_shape_matches").passed
    assert not report.check("matches_ideal_correlation").passed
    assert report.bell_value == pytest.approx(1 + 3 * SQRT2, abs=1e-9)


# ---------------------------------------------------------------------------
# block-diagonal strategies: weights are consistent and block values capped
# ---------------------------------------------------------------------------


def embedded_pair_pvm(d, primed, rng):
    """PVM whose projectors are random rank-1 pairs inside each block subspace."""
    projectors = [None] * d
    for pair in block_answer_pairs(d, primed=primed):
        u = random_unitary(2, rng)
        for k in (0, 1):
            projectors[pair[k]] = embed_pair(d, pair, np.outer(u[:, k], u[:, k].conj()))
    if d % 2:
        leftover = 0 if primed else d - 1
        proj = np.zeros((d, d), dtype=complex)
        proj[leftover, leftover] = 1.0
        projectors[leftover] = proj
    return tuple(projectors)


def block_diagonal_strategy(d, rng):
    """Schmidt-diagonal state measured block-diagonally in both pairings.

    The shared question uses the computational basis (the only measurement
    diagonal in both pairings at once), so every penalized cross term is
    exactly zero while the block weights are the paired Schmidt masses.
    """
    lam = np.sqrt(rng.dirichlet(np.ones(d)))
    state = np.diag(lam).astype(complex).reshape(-1)
    computational = tuple(np.diag(np.eye(d)[a]).astype(complex) for a in range(d))
    alice = (
        computational,
        embedded_pair_pvm(d, False, rng),
        embedded_pair_pvm(d, True, rng),
    )
    bob = (
        embedded_pair_pvm(d, False, rng),
        embedded_pair_pvm(d, False, rng),
        embedded_pair_pvm(d, True, rng),
        embedded_pair_pvm(d, True, rng),
    )
    s = QuantumStrategy(d=d, dA=d, dB=d, state=state, alice_pvms=alice, bob_pvms=bob)
    return s, lam


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("trial", range(5))
def test_block_diagonal_weights_and_block_value_caps(d, trial):
    rng = np.random.default_rng(1000 * d + trial)
    s, lam = block_diagonal_strategy(d, rng)
    assert validate_strategy(s).is_valid
    p = correlation_from_quantum(s)

    assert cross_mass(p) < 1e-12
    bw = extract_block_weights(p)
    assert bw.consistency_residual < 1e-8
    for m in range(n_blocks(d)):
        v = lam[2 * m] ** 2 + lam[2 * m + 1] ** 2
        vp = lam[(2 * m + 1) % d] ** 2 + lam[(2 * m + 2) % d] ** 2
        assert bw.w[m] == pytest.approx(v, abs=1e-8)
        assert bw.w_prime[m] == pytest.approx(vp, abs=1e-8)
        assert chsh_m_value(p, m) <= bw.w[m] * 2 * SQRT2 + 1e-8
        assert chsh_prime_m_value(p, m) <= bw.w_prime[m] * 2 * SQRT2 + 1e-8
    if d % 2:
        assert bw.leftover == pytest.approx((lam[d - 1] ** 2, lam[0] ** 2), abs=1e-8)


# ---------------------------------------------------------------------------
# tilted verification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "c",
    [
        (math.cos(math.pi / 8), math.sin(math.pi / 8)),
        (0.5, 0.5, 0.5, 0.5),
        (0.6, 0.5, 0.45, math.sqrt(0.1875)),
    ],
)
def test_verify_tilted_ideal_is_conjecture_consistent(c):
    f = build_tilted(c, 0.1)
    report = verify_selftest_tilted(ideal_tilted_correlation(f.tilted_spec), f)
    assert report.passed and report.verdict == "conjecture-consistent"
    assert report.verdict != "self-tested"
    assert tuple(ch.name for ch in report.checks) == CHECK_NAMES
    assert report.bound == pytest.approx(1.0 + (1.0 if len(c) > 2 else 0.0))


def test_verify_tilted_flags_perturbed_correlation():
    f = build_tilted((math.cos(math.pi / 8), math.sin(math.pi / 8)), 0.1)
    p = ideal_tilted_correlation(f.tilted_spec)
    mixed = Correlation(d=2, table=0.999 * p.table + 0.001 * 0.25)
    report = verify_selftest_tilted(mixed, f)
    assert not report.passed and report.verdict == "inconsistent"
    assert not report.check("attains_bound").passed


# ---------------------------------------------------------------------------
# tolerance refusal
# ---------------------------------------------------------------------------


BAD_TOLERANCES = [math.nan, math.inf, -math.inf, -1.0, -1e-300]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_verifiers_refuse_bad_tolerance_before_any_work(tol, monkeypatch):
    f, ft = build_maxent(3, 0.1), build_tilted((0.6, 0.8), 0.1)
    p, pt = ideal_maxent_correlation(3), ideal_tilted_correlation(ft.tilted_spec)

    def fail(*args, **kwargs):
        raise AssertionError("the verification ran")

    for name in ("evaluate", "chsh_m_value", "tchsh_m_value", "ideal_tilted_correlation"):
        monkeypatch.setattr(f"chshd.selftest.{name}", fail)
    with pytest.raises(InputError, match="tolerance"):
        verify_selftest(p, f, tol=tol)
    with pytest.raises(InputError, match="tolerance"):
        verify_selftest_tilted(pt, ft, tol=tol)


def test_zero_tolerance_and_unguarded_extraction_stay_legal():
    p = ideal_maxent_correlation(4)
    report = verify_selftest(p, build_maxent(4, 0.1), tol=0.0)
    assert all(c.tolerance == 0.0 for c in report.checks)
    assert report.block_deviation == 0.0  # the ideal's own blocks, renormalized alike
    ft = build_tilted((0.6, 0.8), 0.1)
    assert verify_selftest_tilted(ideal_tilted_correlation(ft.tilted_spec), ft, tol=0.0).d == 2
    assert extract_block_weights(uniform_correlation(4), tol=math.inf).w == (0.25, 0.25)
