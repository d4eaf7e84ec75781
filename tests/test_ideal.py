"""Ideal strategies: PVM validity, bound attainment, and closed-form entries."""

import math

import numpy as np
import pytest

from chshd import (
    TiltedSpec,
    build_maxent,
    build_tilted,
    chsh_m_value,
    chsh_prime_m_value,
    correlation_from_quantum,
    evaluate,
    ideal_maxent_correlation,
    ideal_maxent_strategy,
    ideal_tilted_correlation,
    ideal_tilted_strategy,
    n_blocks,
    no_signaling_residual,
    quantum_bound,
    tchsh_m_value,
    tchsh_prime_m_value,
    validate_strategy,
)
from chshd.correlations import MEMORY_BUDGET, check_memory
from chshd.errors import InputError
from chshd.functionals import uniform_spec
from chshd.ideal import embed_pair, pair_projectors

from oracles import born_table, qubit_chsh_table

TOL = 1e-9
SQRT2 = math.sqrt(2.0)
DIMS = list(range(2, 9))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def test_pair_projectors_are_complementary_rank_one():
    for mu in (0.0, math.pi / 4, 1.1, -0.4):
        plus, minus = pair_projectors(mu)
        operator = math.cos(mu) * np.diag([1.0, -1.0]) + math.sin(mu) * np.array([[0, 1], [1, 0]])
        assert np.allclose(plus + minus, np.eye(2), atol=1e-14)
        assert np.allclose(plus @ plus, plus, atol=1e-14)
        assert np.allclose(operator @ plus, plus, atol=1e-14)  # +1 eigenspace
        assert np.allclose(operator @ minus, -minus, atol=1e-14)


def test_embed_pair_places_block_on_the_named_answers():
    block = np.array([[0.25, 0.4], [0.4, 0.75]])
    out = embed_pair(4, (3, 0), block)
    assert out[3, 3] == 0.25 and out[3, 0] == 0.4 and out[0, 3] == 0.4 and out[0, 0] == 0.75
    assert out[1, 1] == 0 and out[2, 2] == 0


# ---------------------------------------------------------------------------
# validity and attainment
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", DIMS)
def test_ideal_strategy_is_valid(d):
    report = validate_strategy(ideal_maxent_strategy(d))
    assert report.is_valid, report.violations[:3]


@pytest.mark.parametrize("d", DIMS)
def test_ideal_value_attains_quantum_bound(d):
    f = build_maxent(d, 0.1)
    p = ideal_maxent_correlation(d)
    assert abs(evaluate(f, p) - quantum_bound(d)) < TOL


@pytest.mark.parametrize("d", DIMS)
def test_ideal_correlation_matches_kron_oracle(d):
    s = ideal_maxent_strategy(d)
    expected = born_table(s.state, s.alice_pvms, s.bob_pvms)
    assert np.max(np.abs(ideal_maxent_correlation(d).table - expected)) < 1e-12


@pytest.mark.parametrize("d", DIMS)
def test_ideal_correlation_is_nonsignaling(d):
    p = ideal_maxent_correlation(d)
    assert p.quantum_generated
    assert no_signaling_residual(p) < 1e-12


def test_ideal_d2_closed_form_entries():
    p = ideal_maxent_correlation(2)
    assert p.table[0, 0, 0, 0] == pytest.approx((1 + 1 / SQRT2) / 4, abs=1e-12)
    assert p.table[0, 0, 0, 1] == pytest.approx((1 - 1 / SQRT2) / 4, abs=1e-12)
    assert np.max(np.abs(p.table[:2, :2] - qubit_chsh_table())) < 1e-12


@pytest.mark.parametrize("d", DIMS)
def test_ideal_block_values_are_weighted_tsirelson(d):
    p = ideal_maxent_correlation(d)
    for m in range(n_blocks(d)):
        assert chsh_m_value(p, m) == pytest.approx((2.0 / d) * 2 * SQRT2, abs=TOL)
        if d > 2:
            assert chsh_prime_m_value(p, m) == pytest.approx((2.0 / d) * 2 * SQRT2, abs=TOL)


def test_ideal_d4_block_values_frozen():
    p = ideal_maxent_correlation(4)
    for m in (0, 1):
        assert chsh_m_value(p, m) == pytest.approx(SQRT2, abs=1e-12)
        assert chsh_prime_m_value(p, m) == pytest.approx(SQRT2, abs=1e-12)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_ideal_odd_leftover_masses(d):
    p = ideal_maxent_correlation(d)
    for x in (0, 1):
        for y in (0, 1):
            assert p.table[x, y, d - 1, d - 1] == pytest.approx(1.0 / d, abs=1e-12)
    for x in (0, 2):
        for y in (2, 3):
            assert p.table[x, y, 0, 0] == pytest.approx(1.0 / d, abs=1e-12)


def test_ideal_strategies_are_cached():
    assert ideal_maxent_strategy(4) is ideal_maxent_strategy(4)
    assert ideal_maxent_correlation(4) is ideal_maxent_correlation(4)
    for d in (2, 3, 6):  # the plain ideal is the cached tilted ideal at the uniform spec
        assert ideal_maxent_correlation(d) is ideal_tilted_correlation(uniform_spec(d))
        assert ideal_maxent_strategy(d) is ideal_tilted_strategy(uniform_spec(d))
    c = (0.3, 0.5, 0.6, math.sqrt(0.3))
    a, b = TiltedSpec.from_coefficients(c), TiltedSpec.from_coefficients(list(c))
    assert a is not b and a == b
    p, s = ideal_tilted_correlation(a), ideal_tilted_strategy(a)
    assert ideal_tilted_correlation(b) is p and ideal_tilted_strategy(b) is s
    for array in (p.table, s.state, s.alice_pvms, s.bob_pvms):
        assert not array.flags.writeable  # one result is shared by every caller


# ---------------------------------------------------------------------------
# tilted family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 6, math.pi / 4])
def test_tilted_d2_normalized_value_is_one(theta):
    c = (math.cos(theta), math.sin(theta))
    f = build_tilted(c, 0.1)
    p = ideal_tilted_correlation(f.tilted_spec)
    assert abs(evaluate(f, p) - 1.0) < TOL


@pytest.mark.parametrize(
    "c",
    [
        (0.8, 0.6),
        (0.5, 0.5, 0.5, 0.5),
        (0.6, 0.5, 0.45, math.sqrt(0.1875)),
        (0.7, 0.2, 0.3, 0.1, math.sqrt(1 - 0.63)),
    ],
)
def test_tilted_strategy_validity_and_block_saturation(c):
    spec = TiltedSpec.from_coefficients(c)
    s = ideal_tilted_strategy(spec)
    assert validate_strategy(s).is_valid
    p = ideal_tilted_correlation(spec)
    assert no_signaling_residual(p) < 1e-12
    d = spec.d
    for m in range(n_blocks(d)):
        w = c[2 * m] ** 2 + c[2 * m + 1] ** 2
        assert tchsh_m_value(p, m, spec.alpha[m]) == pytest.approx(
            w * spec.i_alpha[m], abs=TOL
        )
        if d > 2:
            wp = c[(2 * m + 1) % d] ** 2 + c[(2 * m + 2) % d] ** 2
            assert tchsh_prime_m_value(p, m, spec.alpha_prime[m]) == pytest.approx(
                wp * spec.i_alpha_prime[m], abs=TOL
            )


def test_tilted_total_value_is_one_per_family():
    """Block contributions sum to 1 (plus 1 for the primed family when d > 2)."""
    for c in [(0.8, 0.6), (0.6, 0.5, 0.45, math.sqrt(0.1875)), (0.7, 0.2, 0.3, 0.1, math.sqrt(1 - 0.63))]:
        f = build_tilted(c, 0.1)
        p = ideal_tilted_correlation(f.tilted_spec)
        target = 1.0 + (1.0 if len(c) > 2 else 0.0)
        assert evaluate(f, p) == pytest.approx(target, abs=TOL)


def test_tilted_uniform_reduces_to_maxent_correlation():
    spec = TiltedSpec.from_coefficients((0.5, 0.5, 0.5, 0.5))
    p = ideal_tilted_correlation(spec)
    q = ideal_maxent_correlation(4)
    assert np.max(np.abs(p.table - q.table)) < 1e-9


@pytest.mark.parametrize("d", range(2, 17))
def test_plain_strategy_is_tilted_at_uniform_coefficients_bit_for_bit(d):
    # the plain strategy as assembled before it was routed through the tilted one:
    # state eye(d)/sqrt(d), Bob's angles +-pi/4 on every block
    from chshd.ideal import _blockwise_pvm

    blocks = n_blocks(d)
    alice = [
        _blockwise_pvm(d, False, [0.0] * blocks),
        _blockwise_pvm(d, False, [math.pi / 2] * blocks),
        _blockwise_pvm(d, True, [math.pi / 2] * blocks),
    ]
    bob = [
        _blockwise_pvm(d, primed, [sign * math.pi / 4] * blocks)
        for primed in (False, True)
        for sign in (1, -1)
    ]
    s = ideal_maxent_strategy(d)
    assert s.state.tobytes() == (np.eye(d) / math.sqrt(d)).reshape(-1).astype(complex).tobytes()
    assert s.alice_pvms.tobytes() == np.array(alice).tobytes()
    assert s.bob_pvms.tobytes() == np.array(bob).tobytes()
    assert s.alice_pvms.dtype == s.bob_pvms.dtype == np.complex128


# ---------------------------------------------------------------------------
# memory budget
# ---------------------------------------------------------------------------


def test_ideal_strategy_beyond_the_memory_budget_is_refused_before_allocating(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the projectors were allocated")

    monkeypatch.setattr("chshd.ideal._blockwise_pvm", fail)
    with pytest.raises(InputError, match="memory budget"):
        ideal_maxent_strategy(400)
    with pytest.raises(InputError, match="memory budget"):
        ideal_maxent_correlation(169)  # 14 complex (d, d, d) arrays just exceed 1 GiB
    check_memory(MEMORY_BUDGET, "a step at the budget")
    with pytest.raises(InputError, match="a step over the budget needs about"):
        check_memory(MEMORY_BUDGET + 1, "a step over the budget")
