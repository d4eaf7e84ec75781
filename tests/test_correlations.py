"""Correlation/strategy containers, validation, and Born-rule generation."""

import math

import numpy as np
import pytest

from chshd import (
    ChshStrategy,
    Correlation,
    DeterministicStrategy,
    InputError,
    NumericalIntegrityError,
    QuantumStrategy,
    ShapeMismatchError,
    correlation_from_deterministic,
    correlation_from_quantum,
    no_signaling_residual,
    validate_correlation,
    validate_strategy,
)

from oracles import born_table, random_pvm, random_state

TOL = 1e-9
BORN_TOL = 1e-12


def _random_strategy(d, rng, dA=None, dB=None):
    dA = d if dA is None else dA
    dB = d if dB is None else dB
    return QuantumStrategy(
        d=d,
        dA=dA,
        dB=dB,
        state=random_state(dA * dB, rng),
        alice_pvms=tuple(random_pvm(dA, d, rng) for _ in range(3)),
        bob_pvms=tuple(random_pvm(dB, d, rng) for _ in range(4)),
    )


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def test_correlation_shape_and_immutability():
    p = Correlation(d=2, table=np.full((3, 4, 2, 2), 0.25))
    assert p.nx == 3 and p.ny == 4 and p.d == 2
    with pytest.raises(ValueError):
        p.table[0, 0, 0, 0] = 1.0


def test_correlation_rejects_bad_shapes():
    with pytest.raises(ShapeMismatchError):
        Correlation(d=2, table=np.zeros((3, 4, 2)))
    with pytest.raises(ShapeMismatchError):
        Correlation(d=3, table=np.zeros((3, 4, 2, 2)))


def test_quantum_strategy_rejects_mismatched_projector_dims():
    rng = np.random.default_rng(0)
    pvm2 = random_pvm(2, 2, rng)  # 2x2 projectors, but dA claims 3
    with pytest.raises(ShapeMismatchError):
        QuantumStrategy(
            d=2, dA=3, dB=2, state=random_state(6, rng),
            alice_pvms=(pvm2,) * 3, bob_pvms=(pvm2,) * 4,
        )


def test_quantum_strategy_rejects_wrong_counts():
    rng = np.random.default_rng(1)
    pvm = random_pvm(2, 2, rng)
    state = random_state(4, rng)
    with pytest.raises(ShapeMismatchError):
        QuantumStrategy(d=2, dA=2, dB=2, state=state, alice_pvms=(pvm, pvm), bob_pvms=(pvm,) * 4)
    with pytest.raises(ShapeMismatchError):
        QuantumStrategy(d=2, dA=2, dB=2, state=state[:3], alice_pvms=(pvm,) * 3, bob_pvms=(pvm,) * 4)


def test_chsh_strategy_is_two_outcome():
    rng = np.random.default_rng(2)
    pvm = random_pvm(2, 2, rng)
    s = ChshStrategy(dA=2, dB=2, state=random_state(4, rng), alice_pvms=(pvm, pvm), bob_pvms=(pvm, pvm))
    assert s.d == 2
    assert len(s.alice_pvms) == 2 and len(s.bob_pvms) == 2


def test_deterministic_strategy_validation():
    s = DeterministicStrategy(fA=(0, 1, 2), fB=(3, 2, 1, 0))
    assert s.fA == (0, 1, 2)
    with pytest.raises(ShapeMismatchError):
        DeterministicStrategy(fA=(0, 1), fB=(0, 0, 0, 0))
    with pytest.raises(InputError):
        DeterministicStrategy(fA=(0, -1, 0), fB=(0, 0, 0, 0))


@pytest.mark.parametrize(
    "fA,fB",
    [
        ((1.5, 0, 0), (0, 0, 0, 0)),
        ((0, 0, 0), (0, 0, 0, 2.9)),
        ((True, 0, 0), (0, 0, 0, 0)),
        ((0, 0, 0), (0, np.bool_(True), 0, 0)),
        ((0, 0, 0), (0, 0, 0, np.float64(2.0))),
        ((0, "1", 0), (0, 0, 0, 0)),
    ],
)
def test_deterministic_strategy_refuses_non_integer_answers(fA, fB):
    with pytest.raises(InputError, match="integers"):
        DeterministicStrategy(fA=fA, fB=fB)


def test_deterministic_strategy_accepts_numpy_integers():
    s = DeterministicStrategy(fA=np.array([0, 1, 2]), fB=(np.int64(3), np.int32(2), np.uint8(1), 0))
    assert s == DeterministicStrategy(fA=(0, 1, 2), fB=(3, 2, 1, 0))
    assert all(type(v) is int for v in s.fA + s.fB)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_correlation_accepts_uniform():
    p = Correlation(d=3, table=np.full((3, 4, 3, 3), 1.0 / 9.0))
    assert validate_correlation(p).is_valid


def test_validate_correlation_flags_negative_and_large():
    table = np.full((3, 4, 2, 2), 0.25)
    table[0, 0, 0, 0] = -0.25
    table[0, 0, 0, 1] = 0.75
    report = validate_correlation(Correlation(d=2, table=table))
    kinds = {v.kind for v in report.violations}
    assert "negative_entry" in kinds
    assert report.worst("negative_entry") == pytest.approx(0.25)


def test_validate_correlation_flags_normalization():
    table = np.full((3, 4, 2, 2), 0.3)
    report = validate_correlation(Correlation(d=2, table=table))
    assert not report.is_valid
    assert report.worst("normalization") == pytest.approx(0.2)


def test_validate_correlation_flags_signaling_when_requested():
    # Alice's marginal for x=0 depends on y: deterministic answer flips with y.
    table = np.zeros((3, 4, 2, 2))
    for x in range(3):
        for y in range(4):
            a = 1 if (x == 0 and y == 1) else 0
            table[x, y, a, 0] = 1.0
    p = Correlation(d=2, table=table)
    assert validate_correlation(p).is_valid  # not quantum_generated: NS not checked
    report = validate_correlation(p, check_no_signaling=True)
    assert {v.kind for v in report.violations} == {"no_signaling_alice"}
    assert no_signaling_residual(p) == pytest.approx(1.0)


def test_validate_strategy_accepts_random_pvm_strategies():
    rng = np.random.default_rng(3)
    for d, dA, dB in [(2, 2, 2), (3, 3, 3), (3, 4, 5), (4, 4, 4)]:
        s = _random_strategy(d, rng, dA, dB)
        report = validate_strategy(s)
        assert report.is_valid, (d, dA, dB, report.violations[:3])


def test_validate_strategy_flags_defects():
    rng = np.random.default_rng(4)
    good = random_pvm(2, 2, rng)
    bad_herm = [np.array([[0.5, 0.5j], [0.5j, 0.5]]), np.eye(2) - np.array([[0.5, 0.5j], [0.5j, 0.5]])]
    not_projector = [0.5 * np.eye(2), 0.5 * np.eye(2)]
    incomplete = [good[0], np.zeros((2, 2))]
    state = random_state(4, rng)

    s = QuantumStrategy(d=2, dA=2, dB=2, state=state, alice_pvms=(bad_herm, good, good), bob_pvms=(good,) * 4)
    assert validate_strategy(s).worst("projector_hermitian") > 0.1

    s = QuantumStrategy(d=2, dA=2, dB=2, state=state, alice_pvms=(not_projector, good, good), bob_pvms=(good,) * 4)
    assert validate_strategy(s).worst("projector_idempotent") > 0.1

    s = QuantumStrategy(d=2, dA=2, dB=2, state=state, alice_pvms=(incomplete, good, good), bob_pvms=(good,) * 4)
    assert validate_strategy(s).worst("pvm_completeness") > 0.1

    s = QuantumStrategy(d=2, dA=2, dB=2, state=2 * state, alice_pvms=(good,) * 3, bob_pvms=(good,) * 4)
    assert validate_strategy(s).worst("state_norm") == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Born rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,dA,dB", [(2, 2, 2), (3, 3, 3), (2, 3, 4), (4, 4, 4)])
def test_born_rule_matches_kron_oracle(d, dA, dB):
    rng = np.random.default_rng(100 + d + dA + dB)
    for _ in range(5):
        s = _random_strategy(d, rng, dA, dB)
        p = correlation_from_quantum(s)
        expected = born_table(s.state, s.alice_pvms, s.bob_pvms)
        assert np.max(np.abs(p.table - expected)) < BORN_TOL
        assert p.quantum_generated


def test_quantum_correlations_are_valid_and_nonsignaling():
    rng = np.random.default_rng(200)
    for trial in range(20):
        d = int(rng.integers(2, 5))
        s = _random_strategy(d, rng)
        p = correlation_from_quantum(s)
        report = validate_correlation(p)
        assert report.is_valid, (trial, report.violations[:3])
        assert no_signaling_residual(p) < TOL


def test_born_rule_rejects_corrupted_projectors():
    rng = np.random.default_rng(5)
    good = random_pvm(2, 2, rng)
    corrupted = [np.array([[0.5, 0.5j], [0.5j, 0.5]]), good[1]]
    s = QuantumStrategy(
        d=2, dA=2, dB=2, state=random_state(4, rng),
        alice_pvms=(corrupted, good, good), bob_pvms=(corrupted,) * 4,
    )
    with pytest.raises(NumericalIntegrityError):
        correlation_from_quantum(s)


# ---------------------------------------------------------------------------
# deterministic strategies
# ---------------------------------------------------------------------------


def test_correlation_from_deterministic_is_indicator():
    s = DeterministicStrategy(fA=(0, 2, 1), fB=(1, 1, 0, 2))
    p = correlation_from_deterministic(s, d=3)
    assert p.table.sum() == pytest.approx(12.0)  # one unit per question pair
    for x in range(3):
        for y in range(4):
            assert p.table[x, y, s.fA[x], s.fB[y]] == 1.0
    assert validate_correlation(p).is_valid


def test_correlation_from_deterministic_range_check():
    with pytest.raises(InputError):
        correlation_from_deterministic(DeterministicStrategy(fA=(0, 0, 2), fB=(0, 0, 0, 0)), d=2)


# ---------------------------------------------------------------------------
# stacked measurements and non-finite input
# ---------------------------------------------------------------------------


def test_strategy_stores_read_only_stacked_pvms():
    rng = np.random.default_rng(6)
    s = _random_strategy(3, rng, 4, 5)
    assert s.alice_pvms.shape == (3, 3, 4, 4) and s.bob_pvms.shape == (4, 3, 5, 5)
    assert s.alice_pvms.dtype == complex
    with pytest.raises(ValueError):
        s.bob_pvms[0, 0, 0, 0] = 1.0
    pvm = random_pvm(2, 2, rng)
    chsh = ChshStrategy(dA=2, dB=2, state=random_state(4, rng), alice_pvms=(pvm, pvm), bob_pvms=(pvm, pvm))
    assert isinstance(chsh, QuantumStrategy) and chsh.alice_pvms.shape == (2, 2, 2, 2)


def test_quantum_strategy_rejects_ragged_pvms():
    rng = np.random.default_rng(7)
    pvm = random_pvm(2, 2, rng)
    short = [pvm[0]]  # one projector where two are expected
    with pytest.raises(ShapeMismatchError):
        QuantumStrategy(
            d=2, dA=2, dB=2, state=random_state(4, rng),
            alice_pvms=(pvm, short, pvm), bob_pvms=(pvm,) * 4,
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_correlation_rejects_non_finite_entries(bad):
    table = np.full((3, 4, 2, 2), 0.25)
    table[1, 2, 0, 1] = bad
    with pytest.raises(InputError):
        Correlation(d=2, table=table)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_quantum_strategy_rejects_non_finite_numbers(bad):
    rng = np.random.default_rng(8)
    pvm = random_pvm(2, 2, rng)
    state = random_state(4, rng)
    nan_state = state.copy()
    nan_state[3] = bad
    with pytest.raises(InputError):
        QuantumStrategy(d=2, dA=2, dB=2, state=nan_state, alice_pvms=(pvm,) * 3, bob_pvms=(pvm,) * 4)
    nan_pvm = [pvm[0].copy(), pvm[1]]
    nan_pvm[0][0, 1] = bad
    with pytest.raises(InputError):
        QuantumStrategy(d=2, dA=2, dB=2, state=state, alice_pvms=(pvm,) * 3, bob_pvms=(pvm, pvm, nan_pvm, pvm))
