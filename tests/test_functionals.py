"""Functional construction, sub-functional values, cross sets, tilted parameters."""

import hashlib
import math

import numpy as np
import pytest

from chshd import (
    BellFunctional,
    Correlation,
    CrossDiagonalMode,
    InputError,
    ShapeMismatchError,
    TiltedSpec,
    Variant,
    build_maxent,
    build_tilted,
    chsh_m_value,
    chsh_prime_m_value,
    classical_reference_bound,
    correlation_from_deterministic,
    cross_sets,
    cross_value,
    evaluate,
    n_blocks,
    quantum_bound,
    tchsh_m_value,
    tchsh_prime_m_value,
)
from chshd import DeterministicStrategy
from chshd.functionals import ODD_BONUS, PLAIN_QUESTIONS, PRIMED_QUESTIONS

from oracles import qubit_chsh_table

LIN_TOL = 1e-12
SQRT2 = math.sqrt(2.0)


def random_table(d, rng, nx=3, ny=4):
    """Random correlation table, normalized per question pair (signaling allowed)."""
    t = rng.random((nx, ny, d, d))
    t /= t.sum(axis=(2, 3), keepdims=True)
    return Correlation(d=d, table=t)


def embed_qubit_chsh(d):
    """Ideal qubit CHSH in block 0 of the plain questions, leftovers elsewhere zero."""
    table = np.zeros((3, 4, d, d))
    table[:2, :2, :2, :2] = qubit_chsh_table()
    # fill the remaining question pairs with a fixed in-block distribution
    for x in range(3):
        for y in range(4):
            if x < 2 and y < 2:
                continue
            table[x, y, 0, 0] = 1.0
    return Correlation(d=d, table=table)


# ---------------------------------------------------------------------------
# block values against hand-counted signs
# ---------------------------------------------------------------------------


def test_chsh_m_value_on_ideal_qubit_block():
    p = embed_qubit_chsh(2)
    assert chsh_m_value(p, 0) == pytest.approx(2 * SQRT2, abs=1e-12)


def test_chsh_m_value_on_deterministic_tables():
    # fA = fB = 0 on the block questions: all four pairs hit (0,0), sign (-1)^(xy).
    p = correlation_from_deterministic(DeterministicStrategy((0, 0, 0), (0, 0, 0, 0)), d=2)
    assert chsh_m_value(p, 0) == pytest.approx(2.0)
    # flipping Bob's answer for y=1 makes signs (+,-,+,+) -> value 2 again
    p = correlation_from_deterministic(DeterministicStrategy((0, 0, 0), (0, 1, 0, 0)), d=2)
    assert chsh_m_value(p, 0) == pytest.approx(2.0)
    # all-ones: signs (+,+,+,-)(a=b=1) -> 1+1+1-1 = 2
    p = correlation_from_deterministic(DeterministicStrategy((1, 1, 1), (1, 1, 1, 1)), d=2)
    assert chsh_m_value(p, 0) == pytest.approx(2.0)


def test_chsh_prime_m_value_wraparound_block_even_d():
    # d=4, primed block m=1 couples labels {3, 4}, i.e. answers {3, 0}.
    # Deterministic a=b=0 (label 4): sign (-1)^(4+4+f g) = (-1)^(f g).
    p = correlation_from_deterministic(DeterministicStrategy((0, 0, 0), (0, 0, 0, 0)), d=4)
    assert chsh_prime_m_value(p, 1) == pytest.approx(2.0)
    # a=b=3 (label 3): sign (-1)^(3+3+f g) = (-1)^(f g) -> also 2.
    p = correlation_from_deterministic(DeterministicStrategy((3, 3, 3), (3, 3, 3, 3)), d=4)
    assert chsh_prime_m_value(p, 1) == pytest.approx(2.0)
    # a=3 (label 3), b=0 (label 4): sign (-1)^(3+4+f g) = -(-1)^(f g) -> -2.
    p = correlation_from_deterministic(DeterministicStrategy((3, 3, 3), (0, 0, 0, 0)), d=4)
    assert chsh_prime_m_value(p, 1) == pytest.approx(-2.0)


def test_block_value_range_checks():
    p = random_table(4, np.random.default_rng(0))
    with pytest.raises(InputError):
        chsh_m_value(p, 2)
    with pytest.raises(InputError):
        chsh_prime_m_value(p, -1)


def test_tchsh_m_value_adds_marginal():
    rng = np.random.default_rng(1)
    p = random_table(2, rng)
    base = chsh_m_value(p, 0)
    marg = float(p.table[0, 0, 0, :].sum() - p.table[0, 0, 1, :].sum())
    assert tchsh_m_value(p, 0, 0.7) == pytest.approx(base + 0.7 * marg, abs=LIN_TOL)
    assert tchsh_m_value(p, 0, -0.7) == pytest.approx(base - 0.7 * marg, abs=LIN_TOL)
    with pytest.raises(InputError):
        tchsh_m_value(p, 0, 2.0)


def test_tchsh_prime_m_value_uses_label_marginals():
    rng = np.random.default_rng(2)
    p = random_table(4, rng)
    base = chsh_prime_m_value(p, 1)
    marg = float(p.table[0, 0, 3, :].sum() - p.table[0, 0, 0, :].sum())
    assert tchsh_prime_m_value(p, 1, 0.3) == pytest.approx(base + 0.3 * marg, abs=LIN_TOL)


# ---------------------------------------------------------------------------
# cross sets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d,mode,plain_pairs,primed_pairs",
    [
        (2, CrossDiagonalMode.EXCLUDE, 0, 0),
        (3, CrossDiagonalMode.EXCLUDE, 4, 4),
        (3, CrossDiagonalMode.INCLUDE, 5, 5),
        (4, CrossDiagonalMode.EXCLUDE, 8, 8),
        (5, CrossDiagonalMode.EXCLUDE, 16, 16),
        (6, CrossDiagonalMode.EXCLUDE, 24, 24),
    ],
)
def test_cross_set_sizes(d, mode, plain_pairs, primed_pairs):
    c, c_prime = cross_sets(d, mode)
    assert len(c) == 4 * plain_pairs  # four question pairs per answer pair
    assert len(c_prime) == 4 * primed_pairs


def test_cross_sets_exclude_drops_leftover_diagonals():
    c_ex, cp_ex = cross_sets(3, CrossDiagonalMode.EXCLUDE)
    c_in, cp_in = cross_sets(3, CrossDiagonalMode.INCLUDE)
    assert {(a, b) for a, b, _, _ in c_in - c_ex} == {(2, 2)}
    assert {(a, b) for a, b, _, _ in cp_in - cp_ex} == {(0, 0)}


def test_cross_value_on_uniform_d4():
    p = Correlation(d=4, table=np.full((3, 4, 4, 4), 1 / 16))
    assert cross_value(p, "C") == pytest.approx(2.0, abs=LIN_TOL)
    assert cross_value(p, "Cprime") == pytest.approx(2.0, abs=LIN_TOL)


def test_cross_value_counts_deterministic_hits():
    # d=4, fA=0, fB=2: (0,2) is outside every plain and primed block.
    p = correlation_from_deterministic(DeterministicStrategy((0, 0, 0), (2, 2, 2, 2)), d=4)
    assert cross_value(p, "C") == pytest.approx(4.0)
    assert cross_value(p, "Cprime") == pytest.approx(4.0)


def test_cross_value_selector_validation():
    p = random_table(3, np.random.default_rng(3))
    with pytest.raises(InputError):
        cross_value(p, "Cboth")


# ---------------------------------------------------------------------------
# builders: structure and decomposition identity
# ---------------------------------------------------------------------------


def test_maxent_coefficients_spot_checks():
    f = build_maxent(4, 0.25)
    c = f.coeff
    assert c[0, 0, 0, 0] == 1.0 and c[0, 0, 0, 1] == -1.0
    assert c[1, 1, 0, 0] == -1.0  # xy = 1 flips the block sign
    assert c[0, 0, 0, 2] == -0.25  # cross pair
    assert c[0, 2, 1, 2] == -1.0  # primed block m=0, labels (1,2), f g = 0
    assert c[2, 3, 1, 2] == 1.0  # f g = 1 flips it
    assert c[0, 2, 3, 0] == -1.0  # wraparound block m=1, labels (3,4)
    assert c[1, 0, 0, 0] == 1.0
    assert np.all(c[:, :, :, :][1, 2:] == 0)  # question pairs outside both groups


def test_maxent_d2_has_no_primed_or_cross_terms():
    f = build_maxent(2, 0.7)
    assert np.all(f.coeff[2] == 0)
    assert np.all(f.coeff[:, 2:] == 0)
    assert set(np.unique(f.coeff[:2, :2])) == {-1.0, 1.0}


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("mode", list(CrossDiagonalMode))
def test_maxent_decomposition_identity(d, mode):
    """evaluate == sum of blocks - eps * cross + bonus * leftovers, on random tables."""
    rng = np.random.default_rng(10 * d)
    eps = 0.37
    f = build_maxent(d, eps, mode)
    for _ in range(10):
        p = random_table(d, rng)
        expected = sum(chsh_m_value(p, m) for m in range(n_blocks(d)))
        if d > 2:
            expected += sum(chsh_prime_m_value(p, m) for m in range(n_blocks(d)))
        expected -= eps * (cross_value(p, "C", mode) + cross_value(p, "Cprime", mode))
        if d % 2:
            expected += ODD_BONUS * sum(
                float(p.table[x, y, d - 1, d - 1]) for x, y in PLAIN_QUESTIONS
            )
            expected += ODD_BONUS * sum(float(p.table[x, y, 0, 0]) for x, y in PRIMED_QUESTIONS)
        assert evaluate(f, p) == pytest.approx(expected, abs=LIN_TOL)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_tilted_decomposition_identity(d):
    rng = np.random.default_rng(20 + d)
    eps = 0.21
    c = rng.random(d) + 0.2
    c /= np.linalg.norm(c)
    f = build_tilted(tuple(c), eps)
    spec = f.tilted_spec
    for _ in range(10):
        t = rng.random((3, 4, d, d))
        t /= t.sum(axis=(2, 3), keepdims=True)
        # symmetrize marginals so the table is no-signaling in the y-direction:
        # use a product table q(a|x) r(b|y) which is trivially no-signaling.
        qa = rng.random((3, d))
        qa /= qa.sum(axis=1, keepdims=True)
        rb = rng.random((4, d))
        rb /= rb.sum(axis=1, keepdims=True)
        table = np.einsum("xa,yb->xyab", qa, rb)
        p = Correlation(d=d, table=table)
        expected = sum(
            tchsh_m_value(p, m, spec.alpha[m]) / spec.i_alpha[m] for m in range(n_blocks(d))
        )
        if d > 2:
            expected += sum(
                tchsh_prime_m_value(p, m, spec.alpha_prime[m]) / spec.i_alpha_prime[m]
                for m in range(n_blocks(d))
            )
        expected -= eps * (cross_value(p, "C") + cross_value(p, "Cprime"))
        if d % 2:
            expected += 0.25 * sum(float(p.table[x, y, d - 1, d - 1]) for x, y in PLAIN_QUESTIONS)
            expected += 0.25 * sum(float(p.table[x, y, 0, 0]) for x, y in PRIMED_QUESTIONS)
        assert evaluate(f, p) == pytest.approx(expected, abs=LIN_TOL)


def test_evaluate_is_linear():
    rng = np.random.default_rng(30)
    f = build_maxent(3, 0.5)
    for _ in range(20):
        p = random_table(3, rng)
        q = random_table(3, rng)
        lam = float(rng.random())
        mix = Correlation(d=3, table=lam * p.table + (1 - lam) * q.table)
        expected = lam * evaluate(f, p) + (1 - lam) * evaluate(f, q)
        assert evaluate(f, mix) == pytest.approx(expected, abs=LIN_TOL)


def test_tilted_uniform_matches_rescaled_maxent():
    """At uniform coefficients the tilted tensor is the plain one divided by 2 sqrt 2."""
    for d in (2, 3, 4, 5, 6):
        eps = 0.11
        uniform = (1.0 / math.sqrt(d),) * d
        tilted = build_tilted(uniform, eps)
        plain = build_maxent(d, eps * 2 * SQRT2)
        assert np.max(np.abs(tilted.coeff - plain.coeff / (2 * SQRT2))) < LIN_TOL


def test_epsilon_guards():
    with pytest.raises(InputError):
        build_maxent(3, 0.0)
    with pytest.raises(InputError):
        build_maxent(3, -0.1)
    with pytest.raises(InputError):
        build_maxent(3, -0.1, allow_zero_epsilon=True)
    f = build_maxent(3, 0.0, allow_zero_epsilon=True)
    assert f.epsilon == 0.0
    with pytest.raises(InputError):
        build_tilted((0.8, 0.6), 0.0)


def test_build_rejects_small_d():
    with pytest.raises(InputError):
        build_maxent(1, 0.1)


def test_functional_variant_and_shape():
    f = build_maxent(3, 0.1)
    assert f.variant is Variant.MAXENT and f.d == 3 and f.coeff.shape == (3, 4, 3, 3)
    with pytest.raises(ValueError):
        f.coeff[0, 0, 0, 0] = 5.0
    with pytest.raises(ShapeMismatchError):
        BellFunctional(d=3, epsilon=0.1, variant=Variant.MAXENT,
                       mode=CrossDiagonalMode.EXCLUDE, coeff=np.zeros((3, 4, 2, 2)))


def test_evaluate_shape_and_ns_guards():
    f = build_maxent(3, 0.1)
    with pytest.raises(ShapeMismatchError):
        evaluate(f, random_table(2, np.random.default_rng(0)))
    with pytest.raises(ShapeMismatchError):
        evaluate(f, random_table(3, np.random.default_rng(0), nx=2, ny=2))
    ft = build_tilted((0.8, 0.6), 0.1)
    signaling = random_table(2, np.random.default_rng(1))  # generic table signals
    with pytest.raises(InputError):
        evaluate(ft, signaling)


# ---------------------------------------------------------------------------
# tilted parameters
# ---------------------------------------------------------------------------


def test_alpha_at_pi_over_8():
    theta = math.pi / 8
    spec = TiltedSpec.from_coefficients((math.cos(theta), math.sin(theta)))
    assert spec.alpha[0] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
    assert spec.alpha[0] == pytest.approx(1.1547005383792517, abs=1e-12)


def test_alpha_signed_when_second_coefficient_dominates():
    spec = TiltedSpec.from_coefficients((0.6, 0.8))
    assert spec.alpha[0] < 0
    assert abs(spec.alpha[0]) < 2


def test_alpha_roundtrip_identity():
    rng = np.random.default_rng(40)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        c = rng.random(d) + 0.1
        c /= np.linalg.norm(c)
        spec = TiltedSpec.from_coefficients(tuple(c))
        for theta, alpha in zip(spec.theta + spec.theta_prime, spec.alpha + spec.alpha_prime):
            lhs = math.sin(2 * theta)
            rhs = math.sqrt((4 - alpha**2) / (4 + alpha**2))
            assert lhs == pytest.approx(rhs, abs=1e-12)
            assert spec.d == d


def test_tilted_spec_rejects_bad_coefficients():
    with pytest.raises(InputError):
        TiltedSpec.from_coefficients((0.9, 0.9))  # not normalized
    with pytest.raises(InputError):
        TiltedSpec.from_coefficients((1.0, 0.0))  # boundary coefficient
    with pytest.raises(InputError):
        TiltedSpec.from_coefficients((-0.6, 0.8))  # negative
    with pytest.raises(InputError):
        TiltedSpec.from_coefficients((1.0,))  # d < 2


def test_mu_is_arctan_sin_two_theta():
    spec = TiltedSpec.from_coefficients((0.8, 0.6))
    theta = math.atan2(0.6, 0.8)
    assert spec.mu[0] == pytest.approx(math.atan(math.sin(2 * theta)), abs=1e-15)
    assert spec.i_alpha[0] == pytest.approx(math.sqrt(8 + 2 * spec.alpha[0] ** 2), abs=1e-15)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds():
    assert quantum_bound(2) == pytest.approx(2 * SQRT2)
    for d in range(3, 9):
        assert quantum_bound(d) == pytest.approx(4 * SQRT2)
    assert classical_reference_bound(2) == 2.0
    for d in range(3, 9):
        assert classical_reference_bound(d) == 4.0


def test_uniform_table_value_d3_is_bonus_only():
    """Blocks cancel on a uniform table; only the odd-d bonus survives."""
    f = build_maxent(3, 0.0, allow_zero_epsilon=True)
    p = Correlation(d=3, table=np.full((3, 4, 3, 3), 1 / 9))
    assert evaluate(f, p) == pytest.approx(4 * SQRT2 / 9, abs=LIN_TOL)


# ---------------------------------------------------------------------------
# bit-exact coefficient tensors
# ---------------------------------------------------------------------------

# sha256 of ``(coeff + 0.0).tobytes()`` (little-endian float64, signed zeros
# folded).  Classical maxima and argmax sets are compared exactly, so the
# builders must keep reproducing these tensors bit for bit.
MAXENT_DIGESTS = {
    (2, 0.1, "exclude"): "3cf899aa7c28b8ba9c04e952f301b9291454c3498ec01551f4ae26ceebc9e92c",
    (2, 0.0, "exclude"): "3cf899aa7c28b8ba9c04e952f301b9291454c3498ec01551f4ae26ceebc9e92c",
    (3, 0.1, "exclude"): "cb3639d3fc86883cad5d619f04c8991027ff0bbe2420244d7c586a8864926c41",
    (3, 0.1, "include"): "ac6d2632b9738703ed51e02d157814354b1939a19d94e5679169ab50f7eddbf8",
    (3, 0.0, "exclude"): "98b72ed5166308bafad12b168eda510781af9fc864c2be87dbf34e43ef517858",
    (3, 0.0, "include"): "98b72ed5166308bafad12b168eda510781af9fc864c2be87dbf34e43ef517858",
    (4, 0.1, "exclude"): "d51484c6e83b2fd8c2971ece040e500c7f132d83db0b07b2fa246210c104f130",
    (4, 0.0, "exclude"): "2c67586e4595c7e1293aef098e405b1060e2b854d9ab795473b6ac24ff0ba7d9",
    (5, 0.1, "exclude"): "6e4f45d4af630f0e5831504b8ea11b357d24addf26f46188f6b2da0a86c511b6",
    (5, 0.1, "include"): "c8df09457996ba759dad840413971e1ec35af21418c03d080c6f8a88745a7cac",
    (5, 0.0, "exclude"): "adec337f620abf442e05349378d0ec9dbf0019b6dcda8cecc695104a218a993f",
    (5, 0.0, "include"): "adec337f620abf442e05349378d0ec9dbf0019b6dcda8cecc695104a218a993f",
    (6, 0.1, "exclude"): "dc23ee05c9cc32e8b387e7a9c7db3bcc3c4b01b36407debe1a740226e90d7b63",
    (6, 0.0, "exclude"): "6a7fc1345f355f61ace9d2a41e9c53b9ee1a0564ed4165b2480a958d7546ece2",
    (7, 0.1, "exclude"): "b813c7ca9f680191abed36d1ffe1682e380e1c9f83d287a181c1f94069b3ced7",
    (7, 0.1, "include"): "1a3b92e1bd6925b86864235d24e547c91387de92b6cea4b60c61ae035e987a69",
    (7, 0.0, "exclude"): "b8f4f62070c1ba4feca4736740bc2b89688f452abafd4347ffae093baffd7dfd",
    (7, 0.0, "include"): "b8f4f62070c1ba4feca4736740bc2b89688f452abafd4347ffae093baffd7dfd",
    (8, 0.1, "exclude"): "8efd49ff2f4221574dc33b0a0abfe075b62016779a093c3c16d44547069585a8",
    (8, 0.0, "exclude"): "e7f27cc4cd68428035b7c322dc79566916f96f333e8c0110a01b5a4114d330fd",
    (9, 0.1, "exclude"): "745623850095ea89894e41b46fb1d9b4b596dd6cd57c9e4b2c15530b947c411a",
    (9, 0.1, "include"): "2309d87c852b3210817ae39b765992fa54bdd7e6762ff11157a4610b1befe679",
    (9, 0.0, "exclude"): "2de1500e25bf97ed4a0e07f99dff4d41c8a3a664078e8d17938abac7cf504606",
    (9, 0.0, "include"): "2de1500e25bf97ed4a0e07f99dff4d41c8a3a664078e8d17938abac7cf504606",
    (10, 0.1, "exclude"): "9530be5318716975981f805176182fb355baed61274d7bf07732fc94c6be1265",
    (10, 0.0, "exclude"): "85f5aed44fcde942945bdaba51ec685e2421e3a76233cccdf1d025ea3c0dc0bf",
}

TILTED_SETS = {
    "pi8": (math.cos(math.pi / 8), math.sin(math.pi / 8)),
    "pi6": (math.cos(math.pi / 6), math.sin(math.pi / 6)),
    "pi4": (math.cos(math.pi / 4), math.sin(math.pi / 4)),
    "0.8,0.6": (0.8, 0.6),
    "0.6,0.8": (0.6, 0.8),
    "uniform4": (0.5, 0.5, 0.5, 0.5),
    "d4": (0.6, 0.5, 0.45, math.sqrt(0.1875)),
    "d5": (0.7, 0.2, 0.3, 0.1, math.sqrt(1 - 0.63)),
    "uniform3": (1.0 / math.sqrt(3),) * 3,
    "uniform5": (1.0 / math.sqrt(5),) * 5,
    "uniform6": (1.0 / math.sqrt(6),) * 6,
}

TILTED_DIGESTS = {
    ("pi8", 0.1, "exclude"): "5919d00c52d6dc1372daf61fd9ecf77eeaee748fa90a3ae75586463d11842457",
    ("pi6", 0.1, "exclude"): "9769e81eda9334177939e803259ddf72d0a53a9fb2908bbefbbcb8c41d03ff0a",
    ("pi4", 0.1, "exclude"): "e4d23c05711ea60d6bb6033541ed24b532e054fe2ef87354cb87243ae0392388",
    ("0.8,0.6", 0.1, "exclude"): "600e7291cf791d875bc3fa98e6d7a70799cf0fb9454de3bba250508f8b50c727",
    ("0.6,0.8", 0.1, "exclude"): "fe90680a507cf32a21522757cc6f918627efc367398dbc34ce13889295054ad8",
    ("uniform4", 0.1, "exclude"): "b7b124001dfaf908699958e5895f0c38872af66e8bf4ac0ba7a937150b16f4b7",
    ("d4", 0.1, "exclude"): "09b2185f7a719f5df6447386a26eaf523144a0109895e0eaf04f037b5f31e02c",
    ("d4", 0.2, "exclude"): "ddde2446bcf96a1bdb881c9845bbc9f26ef6250fd1a8afb26fe2116e5154d4d7",
    ("d5", 0.1, "exclude"): "e5b69596d4b04a7e5759dee70391397a8bd3736220ecf17d13ca305660e0b0cb",
    ("d5", 0.1, "include"): "b14842750fa70a880cb915166dde5d0c3c0f363a0cc43cf5f3d71e53d5e323b6",
    ("d5", 0.0, "exclude"): "79b0352e0abe39dc9d0381c0ca57a5398a2f7c0686217b7df7398d8d413f93b3",
    ("uniform3", 0.11, "exclude"): "07b76b31fa0f3af69f1e8ca0f8d9ffd24590f3341e3c6dee2d9c66685dd56f3d",
    ("uniform5", 0.11, "exclude"): "5908214f934517b1638a01b658c55b16ca4e68632a197ca90716505ed247df4d",
    ("uniform6", 0.11, "exclude"): "077358392194f88aeef52e1819dcb2e6f1989cabd3d803e8af9dc3e8e8414332",
}


def coeff_digest(f):
    return hashlib.sha256((f.coeff + 0.0).tobytes()).hexdigest()


@pytest.mark.parametrize("d,eps,mode", list(MAXENT_DIGESTS))
def test_maxent_coefficients_bit_exact(d, eps, mode):
    f = build_maxent(d, eps, CrossDiagonalMode(mode), allow_zero_epsilon=True)
    assert coeff_digest(f) == MAXENT_DIGESTS[d, eps, mode]


@pytest.mark.parametrize("name,eps,mode", list(TILTED_DIGESTS))
def test_tilted_coefficients_bit_exact(name, eps, mode):
    f = build_tilted(TILTED_SETS[name], eps, CrossDiagonalMode(mode), allow_zero_epsilon=True)
    assert coeff_digest(f) == TILTED_DIGESTS[name, eps, mode]


def test_functional_rejects_non_finite_coefficients():
    coeff = build_maxent(3, 0.1).coeff.copy()
    for bad in (math.nan, math.inf):
        coeff[1, 2, 0, 0] = bad
        with pytest.raises(InputError):
            BellFunctional(d=3, epsilon=0.1, variant=Variant.MAXENT, mode=CrossDiagonalMode.EXCLUDE, coeff=coeff)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_build_rejects_non_finite_epsilon_naming_epsilon(bad):
    with pytest.raises(InputError, match="epsilon must be finite"):
        build_maxent(3, bad)
    with pytest.raises(InputError, match="epsilon must be finite"):
        build_tilted((0.8, 0.6), bad)
