"""Seesaw ascent and CHSH coarse-graining reductions."""

import hashlib
import importlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chshd import (
    InitKind,
    InputError,
    NumericalIntegrityError,
    QuantumStrategy,
    SeesawConfig,
    bell_operator_matrix,
    build_maxent,
    build_tilted,
    chsh_m_value,
    chsh_reduction_even,
    chsh_reduction_odd,
    chsh_value,
    correlation_from_quantum,
    cross_contribution,
    evaluate,
    greedy_sign_selection,
    ideal_maxent_strategy,
    principal_eigenvector,
    quantum_bound,
    seesaw,
    validate_strategy,
)
from chshd.seesaw import ASCENT_SLACK, haar_unitary, random_strategy
from oracles import reference_pair_ascent

seesaw_module = importlib.import_module("chshd.seesaw")  # ``chshd.seesaw`` is also the function

SQRT2 = math.sqrt(2.0)
TOL = 1e-9
TILTED4 = (0.6, 0.5, 0.45, math.sqrt(0.1875))


# ---------------------------------------------------------------------------
# linear-algebra helpers
# ---------------------------------------------------------------------------


def test_haar_unitary_is_unitary_and_seeded():
    rng = np.random.default_rng(3)
    u = haar_unitary(5, rng)
    assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-12)
    again = haar_unitary(5, np.random.default_rng(3))
    assert np.array_equal(u, again)


def test_principal_eigenvector_picks_top_eigenpair():
    m = np.diag([1.0, 5.0, -2.0, 3.0]).astype(complex)
    vec, top = principal_eigenvector(m)
    assert top == pytest.approx(5.0, abs=1e-12)
    assert abs(abs(vec[1]) - 1.0) < 1e-12
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_principal_eigenvector_degenerate_tie_break_is_deterministic():
    vec, top = principal_eigenvector(np.eye(3, dtype=complex))
    assert top == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(vec, np.array([1.0, 0.0, 0.0]), atol=1e-12)
    assert vec[0].imag == 0.0 and vec[0].real > 0


@pytest.mark.parametrize("d,dA,dB", [(2, 2, 2), (3, 3, 3), (2, 4, 3), (4, 4, 4)])
def test_random_strategy_is_valid(d, dA, dB):
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = random_strategy(d, rng, dA, dB)
        assert s.dA == dA and s.dB == dB
        assert validate_strategy(s).is_valid


def test_random_strategy_rejects_undersized_spaces():
    with pytest.raises(InputError):
        random_strategy(4, np.random.default_rng(0), dA=3)


def test_bell_operator_expectation_matches_evaluate():
    rng = np.random.default_rng(19)
    for d in (2, 3, 4):
        f = build_maxent(d, 0.2)
        for _ in range(5):
            s = random_strategy(d, rng)
            m = bell_operator_matrix(f, s)
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            direct = float((s.state.conj() @ m @ s.state).real)
            via_table = evaluate(f, correlation_from_quantum(s))
            assert abs(direct - via_table) < 1e-12


# ---------------------------------------------------------------------------
# optimizer behaviour
# ---------------------------------------------------------------------------


def test_seesaw_config_validation():
    with pytest.raises(InputError):
        SeesawConfig(restarts=0)
    with pytest.raises(InputError):
        SeesawConfig(max_iters=0)
    with pytest.raises(InputError):
        SeesawConfig(convergence_tol=0.0)
    with pytest.raises(InputError):
        SeesawConfig(init_noise=-1e-3)


@pytest.mark.parametrize("field", ["convergence_tol", "init_noise", "seed"])
def test_seesaw_config_rejects_nan(field):
    bad = {"convergence_tol": (math.nan, math.inf), "init_noise": (math.nan, math.inf), "seed": (-1,)}
    for value in bad[field]:
        with pytest.raises(InputError, match=field):
            SeesawConfig(**{field: value})


@pytest.mark.parametrize("field", ["dA", "dB", "restarts", "max_iters", "seed"])
@pytest.mark.parametrize("value", [True, 2.5, 3.0, "3"])
def test_seesaw_config_rejects_non_integers(field, value):
    with pytest.raises(InputError, match=field):
        SeesawConfig(**{field: value})


def test_seesaw_config_takes_init_by_value():
    f = build_maxent(3, 0.1)
    by_value = SeesawConfig(restarts=1, max_iters=2, seed=4, init="random")
    assert by_value.init is InitKind.RANDOM
    by_kind = SeesawConfig(restarts=1, max_iters=2, seed=4, init=InitKind.RANDOM)
    assert seesaw(f, by_value).trajectory == seesaw(f, by_kind).trajectory
    assert SeesawConfig(init="ideal-perturbed").init is InitKind.IDEAL_PERTURBED


def test_seesaw_config_rejects_unknown_init():
    with pytest.raises(InputError, match="init"):
        SeesawConfig(init="bogus")


def test_seesaw_trajectories_are_monotone():
    f = build_maxent(3, 0.1)
    res = seesaw(f, SeesawConfig(restarts=4, max_iters=40, seed=5))
    for trajectory in res.trajectory:
        diffs = np.diff(np.asarray(trajectory))
        assert diffs.min() > -ASCENT_SLACK if diffs.size else True


def test_seesaw_is_deterministic_under_seed():
    f = build_maxent(2, 0.1)
    cfg = SeesawConfig(restarts=3, max_iters=30, seed=42)
    a, b = seesaw(f, cfg), seesaw(f, cfg)
    assert a.best_value == b.best_value
    assert a.trajectory == b.trajectory
    assert a.best_restart == b.best_restart


def test_seesaw_reaches_quantum_bound_d2():
    f = build_maxent(2, 0.1)
    res = seesaw(f, SeesawConfig(restarts=4, seed=0))
    assert res.best_value >= quantum_bound(2) - 1e-6
    assert res.best_value <= quantum_bound(2) + 1e-7


def test_seesaw_best_strategy_reproduces_best_value():
    f = build_maxent(3, 0.1)
    res = seesaw(f, SeesawConfig(restarts=3, max_iters=60, seed=9))
    assert validate_strategy(res.best_strategy).is_valid
    value = evaluate(f, correlation_from_quantum(res.best_strategy))
    assert abs(value - res.best_value) < 1e-9
    assert 0 <= res.best_restart < 3
    assert len(res.trajectory) == 3 and len(res.converged) == 3


def test_seesaw_respects_max_iters():
    f = build_maxent(3, 0.1)
    res = seesaw(f, SeesawConfig(restarts=2, max_iters=3, seed=1))
    assert all(len(t) <= 3 for t in res.trajectory)


def test_seesaw_ideal_perturbed_start_converges_fast():
    f = build_maxent(4, 0.1)
    cfg = SeesawConfig(restarts=2, max_iters=80, seed=2, init=InitKind.IDEAL_PERTURBED)
    res = seesaw(f, cfg)
    assert res.best_value >= quantum_bound(4) - 1e-4


def test_seesaw_ideal_perturbed_rejects_enlarged_spaces():
    f = build_maxent(2, 0.1)
    with pytest.raises(InputError):
        seesaw(f, SeesawConfig(dA=3, init=InitKind.IDEAL_PERTURBED))


def test_seesaw_rejects_undersized_spaces():
    with pytest.raises(InputError):
        seesaw(build_maxent(4, 0.1), SeesawConfig(dA=2, restarts=1))


def test_seesaw_reports_pair_cap_hits(monkeypatch):
    f = build_maxent(3, 0.1)
    cfg = SeesawConfig(restarts=2, max_iters=5, seed=4)
    free = seesaw(f, cfg)
    assert len(free.pair_cap_hits) == 2
    monkeypatch.setattr(seesaw_module, "_PAIR_PASSES", 1)
    capped = seesaw(f, cfg)
    assert len(capped.pair_cap_hits) == 2
    for hits, trajectory in zip(capped.pair_cap_hits, capped.trajectory):
        # One measurement step per question (3 + 4) and iteration can hit the cap.
        assert 0 < hits <= 7 * len(trajectory)
    assert sum(capped.pair_cap_hits) > sum(free.pair_cap_hits)


# Single-restart runs frozen before the measurement step moved to orthonormal
# frames (default settings, epsilon = 0.1): (family, d, dims, seed, best_value,
# iterations).  The frame update is the same algorithm with round-off taken in
# another order, so values agree to 1e-9 and these square runs keep their
# iteration counts; on wider spaces the count may move by a few iterations.
FROZEN_RUNS = [
    ("plain", 3, None, 1, 5.656854249447218, 23),
    ("plain", 3, None, 2, 5.656854249468034, 23),
    ("plain", 4, None, 1, 5.656854249190466, 83),
    ("plain", 4, None, 2, 5.656854249168328, 86),
    ("plain", 6, None, 1, 5.656854249209755, 80),
    ("plain", 6, None, 2, 5.656854249198222, 75),
    ("tilted", 4, None, 1, 1.999999999916557, 37),
    ("tilted", 4, None, 2, 1.9999999999070963, 40),
    ("plain", 3, (5, 5), 1, 5.65685424947101, 21),
    ("plain", 3, (5, 5), 2, 5.412804801997599, 41),
    ("plain", 4, (6, 6), 1, 5.656854249153486, 69),
    ("plain", 4, (6, 6), 2, 5.656854249198126, 75),
]


@pytest.mark.parametrize("family,d,dims,seed,value,iterations", FROZEN_RUNS)
def test_seesaw_matches_frozen_runs(family, d, dims, seed, value, iterations):
    f = build_tilted(TILTED4, 0.1) if family == "tilted" else build_maxent(d, 0.1)
    dA, dB = dims if dims is not None else (None, None)
    res = seesaw(f, SeesawConfig(dA=dA, dB=dB, restarts=1, seed=seed))
    assert abs(res.best_value - value) < 1e-9
    if dims is None:
        assert len(res.trajectory[0]) == iterations


# ---------------------------------------------------------------------------
# measurement step on orthonormal frames
# ---------------------------------------------------------------------------


def measurement_objective(pvm, gains):
    return float(np.einsum("aij,aji->", pvm, gains).real)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 5), extra=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_pair_ascent_property(d, extra, seed):
    rng = np.random.default_rng(seed)
    dim = d + extra
    frame = haar_unitary(dim, rng)
    labels = rng.integers(d, size=dim)  # some answers may start with rank 0
    g = rng.standard_normal((d, dim, dim)) + 1j * rng.standard_normal((d, dim, dim))
    gains = g + g.conj().swapaxes(-1, -2)
    before = measurement_objective(seesaw_module._projectors(frame[None], labels[None], d)[0], gains)

    gain, _ = seesaw_module._pair_ascent(frame, labels, gains, 1e-10)

    assert np.abs(frame.conj().T @ frame - np.eye(dim)).max() < 1e-12
    pvm = seesaw_module._projectors(frame[None], labels[None], d)
    state = np.zeros(dim * dim, dtype=complex)
    state[0] = 1.0
    s = QuantumStrategy(
        d=d, dA=dim, dB=dim, state=state, alice_pvms=np.repeat(pvm, 3, 0), bob_pvms=np.repeat(pvm, 4, 0)
    )
    assert validate_strategy(s).is_valid
    after = measurement_objective(pvm[0], gains)
    assert after >= before - 1e-12
    assert abs(gain - (after - before)) < 1e-10


# The pair step against its referee, bit for bit.  Both run in this process,
# so the comparison holds on any BLAS build.  d = 2 at dim 9 and 10 puts 8 or
# more columns into one pair, where NumPy's float sums stop adding left to
# right; a low Schmidt rank gives the round-off eigenvalues the tie rule
# ``> 0.0`` acts on; ``shift`` makes every eigenvalue of the pairs with
# answer 0 positive, so all of a pair's columns enter both sums.
DIMS = st.one_of(
    st.integers(2, 6).flatmap(lambda d: st.tuples(st.just(d), st.integers(d, d + 3))),
    st.tuples(st.just(2), st.sampled_from([9, 10])),
)


@settings(max_examples=120, deadline=None)
@given(
    dims=DIMS,
    rank_deficit=st.integers(0, 3),
    shift=st.booleans(),
    passes=st.sampled_from([1, 2, 30]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=(2, 10), rank_deficit=0, shift=True, passes=30, seed=1)
@example(dims=(2, 9), rank_deficit=2, shift=False, passes=30, seed=2)
@example(dims=(3, 6), rank_deficit=3, shift=False, passes=30, seed=3)
def test_pair_ascent_matches_reference_bitwise(dims, rank_deficit, shift, passes, seed):
    d, dim = dims
    rng = np.random.default_rng(seed)
    rank = max(1, dim - rank_deficit)
    psi = rng.standard_normal((dim, rank)) @ rng.standard_normal((rank, dim))
    w = rng.standard_normal((d, dim, dim)) + 1j * rng.standard_normal((d, dim, dim))
    gains = seesaw_module._gains(psi / np.linalg.norm(psi), w + w.conj().swapaxes(-1, -2))
    if shift:
        gains[0] += 10.0 * np.eye(dim)
    frame = haar_unitary(dim, rng)
    labels = rng.integers(d, size=dim)
    ref_frame, ref_labels = frame.copy(), labels.copy()

    with mock.patch.object(seesaw_module, "_PAIR_PASSES", passes):
        gain, capped = seesaw_module._pair_ascent(frame, labels, gains, 1e-10)
    ref_gain, ref_capped = reference_pair_ascent(ref_frame, ref_labels, gains, 1e-10, passes)

    assert frame.tobytes() == ref_frame.tobytes()
    assert labels.dtype == ref_labels.dtype and labels.tolist() == ref_labels.tolist()
    assert gain == ref_gain and capped == ref_capped


def run_digest(res) -> str:
    s = res.best_strategy
    h = hashlib.sha256(repr((res.best_value, res.trajectory, res.converged, res.pair_cap_hits)).encode())
    h.update(repr(res.best_restart).encode())
    for array in (s.state, s.alice_pvms, s.bob_pvms):
        h.update(array.tobytes())
    return h.hexdigest()


SEESAW_GATE_CASES = [
    ("plain", 3, None),
    ("plain", 4, None),
    ("plain", 6, None),
    ("tilted", 4, None),
    ("plain", 3, (5, 5)),
    ("plain", 4, (6, 6)),
    ("plain", 2, (9, 9)),
]


def test_seesaw_runs_match_reference_pair_step(monkeypatch):
    cap_hits = 0
    for family, d, dims in SEESAW_GATE_CASES:
        f = build_tilted(TILTED4, 0.1) if family == "tilted" else build_maxent(d, 0.1)
        dA, dB = dims if dims is not None else (None, None)
        cfg = SeesawConfig(dA=dA, dB=dB, restarts=2, seed=1)
        res = seesaw(f, cfg)
        with monkeypatch.context() as m:
            m.setattr(
                seesaw_module,
                "_pair_ascent",
                lambda *args: reference_pair_ascent(*args, passes=seesaw_module._PAIR_PASSES),
            )
            ref = seesaw(f, cfg)
        assert run_digest(res) == run_digest(ref), (family, d, dims)
        cap_hits += sum(res.pair_cap_hits)
    assert cap_hits > 0


def test_frames_round_trip_and_refuse_rank_defects():
    s = random_strategy(3, np.random.default_rng(8), dA=5, dB=4)
    for pvms in (s.alice_pvms, s.bob_pvms):
        frames, labels = seesaw_module._frames(pvms)
        assert frames.shape == (len(pvms),) + pvms.shape[-2:]
        assert np.abs(seesaw_module._projectors(frames, labels, 3) - pvms).max() < 1e-12
    broken = np.array(s.alice_pvms)
    broken[1, 2] = 0.0  # question 1 loses answer 2's range
    with pytest.raises(NumericalIntegrityError):
        seesaw_module._frames(broken)


# ---------------------------------------------------------------------------
# coarse-graining reductions
# ---------------------------------------------------------------------------


def all_sign_vectors(d):
    return list(itertools.product((0, 1), repeat=d // 2 - 1))


@pytest.mark.parametrize("d", [4, 6])
def test_even_reduction_identity_all_sign_vectors(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(5):
        s = random_strategy(d, rng)
        p = correlation_from_quantum(s)
        block_sum = sum(chsh_m_value(p, m) for m in range(d // 2))
        for o in all_sign_vectors(d):
            reduced = chsh_reduction_even(s, o)
            assert validate_strategy(reduced).is_valid
            lhs = chsh_value(reduced)
            rhs = block_sum + cross_contribution(p, o)
            assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("d", [3, 5])
def test_odd_reduction_identity_all_sign_vectors(d):
    rng = np.random.default_rng(200 + d)
    for _ in range(5):
        s = random_strategy(d, rng)
        p = correlation_from_quantum(s)
        block_sum = sum(chsh_m_value(p, m) for m in range(d // 2))
        leftover = sum(p.table[x, y, d - 1, d - 1] for x in (0, 1) for y in (0, 1))
        for o in all_sign_vectors(d):
            reduced = chsh_reduction_odd(s, o)
            assert validate_strategy(reduced).is_valid
            lhs = chsh_value(reduced)
            rhs = block_sum + cross_contribution(p, o) + (SQRT2 / 2) * leftover
            assert abs(lhs - rhs) < 1e-9


def test_even_reduction_of_ideal_attains_tsirelson():
    for d in (2, 4, 6):
        s = ideal_maxent_strategy(d)
        o = greedy_sign_selection(s)
        reduced = chsh_reduction_even(s, o)
        assert chsh_value(reduced) == pytest.approx(2 * SQRT2, abs=TOL)


def test_odd_reduction_of_ideal_attains_tsirelson():
    for d in (3, 5):
        s = ideal_maxent_strategy(d)
        o = greedy_sign_selection(s)
        reduced = chsh_reduction_odd(s, o)
        assert chsh_value(reduced) == pytest.approx(2 * SQRT2, abs=TOL)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_greedy_sign_selection_is_nonnegative(d):
    rng = np.random.default_rng(300 + d)
    for _ in range(10):
        s = random_strategy(d, rng)
        o = greedy_sign_selection(s)
        assert len(o) == d // 2 - 1
        assert cross_contribution(correlation_from_quantum(s), o) >= -1e-12


def test_reduction_rejects_wrong_parity_and_bad_sign_vectors():
    s4 = random_strategy(4, np.random.default_rng(0))
    s3 = random_strategy(3, np.random.default_rng(0))
    with pytest.raises(InputError):
        chsh_reduction_even(s3, ())
    with pytest.raises(InputError):
        chsh_reduction_odd(s4, ())
    with pytest.raises(InputError):
        chsh_reduction_even(s4, ())  # needs one bit
    with pytest.raises(InputError):
        chsh_reduction_even(s4, (2,))  # not a bit
