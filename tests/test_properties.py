"""Property tests: the reduction identity, linearity, no-signaling, the tilted family's ideal.

These complement the frozen examples in ``test_seesaw.py`` and
``test_acceptance.py`` with hypothesis-drawn dimensions and seeds.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chshd import (
    Correlation,
    build_maxent,
    build_tilted,
    chsh_m_value,
    correlation_from_quantum,
    evaluate,
    ideal_tilted_correlation,
    no_signaling_residual,
    validate_correlation,
    verify_selftest_tilted,
)
from chshd.seesaw import (
    chsh_reduction_even,
    chsh_reduction_odd,
    chsh_value,
    cross_contribution,
    greedy_sign_selection,
    random_strategy,
)

SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 7), seed=SEEDS)
def test_reduction_identity_with_greedy_signs(d, seed):
    s = random_strategy(d, np.random.default_rng(seed))
    p = correlation_from_quantum(s)
    o = greedy_sign_selection(s)
    reduce = chsh_reduction_odd if d % 2 else chsh_reduction_even
    expected = sum(chsh_m_value(p, m) for m in range(d // 2)) + cross_contribution(p, o)
    if d % 2:  # the leftover answer routed to the EPR pair earns the odd bonus
        expected += math.sqrt(2) / 2 * sum(p.table[x, y, d - 1, d - 1] for x in (0, 1) for y in (0, 1))
    assert abs(chsh_value(reduce(s, o)) - expected) <= 1e-12
    assert cross_contribution(p, o) >= -1e-12


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 5), tilted=st.booleans(), weight=st.floats(0.0, 1.0), seed=SEEDS)
def test_evaluate_is_linear_on_mixtures_and_scalings(d, tilted, weight, seed):
    rng = np.random.default_rng(seed)
    if tilted:
        c = rng.uniform(0.2, 1.0, d)
        f = build_tilted(c / np.linalg.norm(c), 0.1)
    else:
        f = build_maxent(d, 0.1)
    p, q = (correlation_from_quantum(random_strategy(d, rng)) for _ in range(2))
    mixture = Correlation(d=d, table=weight * p.table + (1 - weight) * q.table)
    expected = weight * evaluate(f, p) + (1 - weight) * evaluate(f, q)
    assert abs(evaluate(f, mixture) - expected) <= 1e-12
    scaled = Correlation(d=d, table=weight * p.table)  # a mixture alone would let an offset pass
    assert abs(evaluate(f, scaled) - weight * evaluate(f, p)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 5), extra_a=st.integers(0, 2), extra_b=st.integers(0, 2), seed=SEEDS)
def test_born_tables_are_no_signaling(d, extra_a, extra_b, seed):
    s = random_strategy(d, np.random.default_rng(seed), dA=d + extra_a, dB=d + extra_b)
    p = correlation_from_quantum(s)
    assert no_signaling_residual(p) <= 1e-12
    assert validate_correlation(p, tol=1e-12).is_valid


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8).flatmap(lambda d: st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)))
def test_tilted_ideal_attains_the_bound_and_is_conjecture_consistent(entries):
    c = np.array(entries) / np.linalg.norm(entries)  # unsorted: any coefficient may dominate a block
    f = build_tilted(c, 0.1)
    p = ideal_tilted_correlation(f.spec)
    assert abs(evaluate(f, p) - f.bound) <= 1e-12
    assert verify_selftest_tilted(p, f).verdict == "conjecture-consistent"
