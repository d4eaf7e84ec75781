"""See-saw maximization of Bell functionals and CHSH coarse-graining reductions.

The optimizer alternates two exact coordinate steps:

* *state step* -- replace the state by the principal eigenvector of the Bell
  operator assembled from the current measurements;
* *measurement step* -- for each party and question, coordinate-ascent over
  answer pairs: the restriction of the objective to one pair of projectors is
  a two-outcome discrimination problem whose optimum is the split of the
  pair's subspace into the positive/non-positive eigenspaces of the restricted
  gain difference.

During the measurement step each question's PVM is held as an orthonormal
frame (one column per basis vector of ``C^dim``) with an answer label per
column, so ``P^a`` is the sum of the outer products of the columns labelled
``a``.  The frames are read off the starting PVMs once per restart.  A pair
update rotates the columns labelled ``a`` or ``b`` onto the eigenvectors of
the gain difference restricted to them and relabels them, which costs one
small ``eigh``; the objective's rise is read from its eigenvalues.  Ranks may
move between answers, so wider local spaces (``dim > d``) need no special
case.  Stacked projectors are rebuilt from the frames once per party and
sweep, for the Bell operator, the gains and the objective.

Both steps can only increase the objective, so trajectories are monotone
non-decreasing up to round-off.  All randomness flows from a single seed;
restarts draw independent child generators from it, so identical seed and
configuration reproduce trajectories bitwise on one platform.

The reduction operations coarse-grain a d-outcome strategy on questions
``x, y in {0, 1}`` into a two-outcome CHSH strategy.  For even ``d`` the two
answers of block ``m >= 1`` may be swapped before merging, controlled by a
sign vector ``o``; the CHSH value of the reduced strategy then equals the sum
of the block values plus a signed cross-term contribution ``C(o)``
(:func:`cross_contribution`).  :func:`greedy_sign_selection` picks ``o`` block
by block so that ``C(o) >= 0``.  For odd ``d`` the leftover answer ``d - 1``
is routed to a fresh shared EPR pair measured with the ideal CHSH qubit
measurements, which adds ``sqrt(2)/2 * sum_{x,y} p(d-1, d-1 | x, y)`` to the
same identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .correlations import (
    ChshStrategy,
    Correlation,
    QuantumStrategy,
    check_memory,
    correlation_from_quantum,
)
from .errors import InputError, NumericalIntegrityError
from .functionals import CHSH_SIGNS, BellFunctional, chsh_m_value
from .ideal import ideal_maxent_strategy, ideal_tilted_strategy

#: Slack allowed on trajectory monotonicity (round-off only).
ASCENT_SLACK = 1e-10

_DEGENERACY_TOL = 1e-12
_RANK_TOL = 0.5  # eigenvalues of a projector above this count as range
_PAIR_PASSES = 30  # cap on coordinate-ascent passes within one measurement


class InitKind(str, Enum):
    RANDOM = "random"
    IDEAL_PERTURBED = "ideal-perturbed"


@dataclass(frozen=True)
class SeesawConfig:
    """Optimizer settings.

    ``dA``/``dB`` default to the functional's ``d``.  ``init_noise`` is the
    perturbation strength used by :attr:`InitKind.IDEAL_PERTURBED`.
    """

    dA: int | None = None
    dB: int | None = None
    restarts: int = 8
    max_iters: int = 200
    convergence_tol: float = 1e-10
    seed: int = 0
    init: InitKind = InitKind.RANDOM
    init_noise: float = 1e-2

    def __post_init__(self):
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise InputError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        # Written so that NaN fails them: every comparison with NaN is false.
        if not 0 < self.convergence_tol < math.inf:
            raise InputError(f"convergence_tol must be positive and finite, got {self.convergence_tol}")
        if not 0 <= self.init_noise < math.inf:
            raise InputError(f"init_noise must be non-negative and finite, got {self.init_noise}")


@dataclass(frozen=True)
class SeesawResult:
    """Best strategy over restarts, with the full per-restart value trajectories."""

    best_value: float
    best_strategy: QuantumStrategy
    best_restart: int
    trajectory: tuple[tuple[float, ...], ...]
    converged: tuple[bool, ...]
    pair_cap_hits: tuple[int, ...]


# ---------------------------------------------------------------------------
# random strategies
# ---------------------------------------------------------------------------


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian with phase fix)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    return q * (diag / np.abs(diag))


def _basis_pvm(dim: int, n_answers: int) -> np.ndarray:
    """Computational-basis PVM ``(n_answers, dim, dim)``; the last answer absorbs extra dimensions."""
    labels = np.minimum(np.arange(dim), n_answers - 1)
    return np.eye(dim, dtype=complex) * (labels == np.arange(n_answers)[:, None, None])


def random_strategy(
    d: int, rng: np.random.Generator, dA: int | None = None, dB: int | None = None
) -> QuantumStrategy:
    """Haar-random strategy: rotated basis PVMs and a Haar-random pure state."""
    dA = d if dA is None else dA
    dB = d if dB is None else dB
    if dA < d or dB < d:
        raise InputError(f"local dimensions must be at least d={d}, got dA={dA}, dB={dB}")

    def rotated(dim: int) -> np.ndarray:
        u = haar_unitary(dim, rng)
        return u @ _basis_pvm(dim, d) @ u.conj().T

    alice = [rotated(dA) for _ in range(3)]
    bob = [rotated(dB) for _ in range(4)]
    state = rng.standard_normal(dA * dB) + 1j * rng.standard_normal(dA * dB)
    state /= np.linalg.norm(state)
    return QuantumStrategy(d=d, dA=dA, dB=dB, state=state, alice_pvms=alice, bob_pvms=bob)


def _perturbation_unitary(dim: int, noise: float, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / (2 * math.sqrt(dim))
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * noise * vals)) @ vecs.conj().T


def _perturbed_ideal(f: BellFunctional, noise: float, rng: np.random.Generator) -> QuantumStrategy:
    base = ideal_tilted_strategy(f.spec)

    def jiggle(pvms: np.ndarray, dim: int) -> np.ndarray:
        u = np.stack([_perturbation_unitary(dim, noise, rng) for _ in pvms])[:, None]
        return u @ pvms @ u.conj().swapaxes(-1, -2)

    state = base.state + noise * (
        rng.standard_normal(base.state.shape) + 1j * rng.standard_normal(base.state.shape)
    )
    state /= np.linalg.norm(state)
    return QuantumStrategy(
        d=base.d,
        dA=base.dA,
        dB=base.dB,
        state=state,
        alice_pvms=jiggle(base.alice_pvms, base.dA),
        bob_pvms=jiggle(base.bob_pvms, base.dB),
    )


# ---------------------------------------------------------------------------
# operator assembly and exact coordinate steps
# ---------------------------------------------------------------------------
#
# ``alice`` (3, d, dA, dA) and ``bob`` (4, d, dB, dB) are stacked PVMs.  With
# ``W[x, a] = sum_{y,b} coeff[x,y,a,b] PB_y^b`` the Bell operator is
# ``sum_{x,a} PA_x^a (x) W[x, a]``, and for the state matrix ``psi`` (dA, dB)
# the objective is ``sum_{x,a} Tr[PA_x^a psi W[x,a]^T psi^dag]``; Bob's side
# is the same with ``psi^T`` and ``V[y, b] = sum_{x,a} coeff[x,y,a,b] PA_x^a``.


def bell_operator_matrix(f: BellFunctional, s: QuantumStrategy) -> np.ndarray:
    """Hermitian matrix ``sum coeff[x,y,a,b] PA_x^a (x) PB_y^b`` on C^dA (x) C^dB."""
    if s.d != f.d:
        raise InputError(f"dimension mismatch: functional d={f.d}, strategy d={s.d}")
    return _operator(s.alice_pvms, np.tensordot(f.coeff, s.bob_pvms, axes=([1, 3], [0, 1])))


def _operator(alice: np.ndarray, w: np.ndarray) -> np.ndarray:
    dim = alice.shape[-1] * w.shape[-1]
    return np.einsum("xaij,xakl->ikjl", alice, w).reshape(dim, dim)


def principal_eigenvector(
    m: np.ndarray, degeneracy_tol: float = _DEGENERACY_TOL
) -> tuple[np.ndarray, float]:
    """Top eigenpair with a deterministic tie-break under degeneracy.

    Within the top eigenspace the returned vector is the normalized projection
    of the lexicographically first computational basis vector with
    non-negligible overlap, so the choice does not depend on LAPACK's basis of
    a degenerate eigenspace.
    """
    vals, vecs = np.linalg.eigh(m)
    top = float(vals[-1])
    space = vecs[:, vals >= top - degeneracy_tol]
    for k in range(m.shape[0]):
        proj = space @ space[k, :].conj()
        norm = float(np.linalg.norm(proj))
        if norm > 1e-8:
            return proj / norm, top  # component k is real positive by construction
    return vecs[:, -1], top


def _gains(psi_mat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hermitian ``psi W^T psi^dag`` per question and answer: the objective is ``sum Tr[P L]``."""
    return psi_mat @ w.swapaxes(-1, -2) @ psi_mat.conj().T


def _frames(pvms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal frames ``(n_questions, dim, dim)`` and column labels ``(n_questions, dim)``.

    Column ``k`` of frame ``x`` lies in the range of ``P_x^{labels[x, k]}``.

    Raises:
        NumericalIntegrityError: if a question's projector ranks do not sum to ``dim``.
    """
    n, d, dim = pvms.shape[:3]
    vals, vecs = np.linalg.eigh(pvms)
    keep = vals > _RANK_TOL
    ranks = keep.sum(axis=(1, 2))
    if np.any(ranks != dim):
        raise NumericalIntegrityError(
            f"projector ranks per question sum to {ranks.tolist()}, expected {dim} each"
        )
    frames = vecs.swapaxes(-1, -2)[keep].reshape(n, dim, dim).swapaxes(-1, -2)
    labels = np.broadcast_to(np.arange(d)[:, None], keep.shape)[keep].reshape(n, dim)
    return np.ascontiguousarray(frames), labels


def _projectors(frames: np.ndarray, labels: np.ndarray, d: int) -> np.ndarray:
    """Stacked PVMs ``(n_questions, d, dim, dim)``: ``P_x^a`` sums the columns labelled ``a``."""
    onehot = labels[:, None, :] == np.arange(d)[:, None]
    return np.einsum("xik,xak,xjk->xaij", frames, onehot, frames.conj())


def _pair_ascent(
    frame: np.ndarray, labels: np.ndarray, gains: np.ndarray, tol: float
) -> tuple[float, bool]:
    """Coordinate ascent over answer pairs of one question's frame and labels, in place.

    For a pair ``a < b`` the columns labelled ``a`` or ``b`` span the range
    of ``P_a + P_b``.  They are rotated onto the eigenvectors of the restricted
    gain difference and relabelled ``a`` where its eigenvalue is positive.
    The objective ``sum_a Tr[P_a gains[a]]`` then rises by the positive
    eigenvalues' sum minus the old ``a`` columns' diagonal entries.

    Returns the total gain and whether the pass cap was hit.
    """
    d = len(gains)
    total = 0.0
    for _ in range(_PAIR_PASSES):
        pass_gain = 0.0
        for a in range(d):
            for b in range(a + 1, d):
                cols = np.nonzero((labels == a) | (labels == b))[0]
                if cols.size == 0:
                    continue
                basis = frame[:, cols]
                diff = basis.conj().T @ (gains[a] - gains[b]) @ basis
                diff = (diff + diff.conj().T) / 2
                dvals, dvecs = np.linalg.eigh(diff)
                up = dvals > 0.0
                pass_gain += dvals[up].sum() - diff.diagonal()[labels[cols] == a].real.sum()
                frame[:, cols] = basis @ dvecs
                labels[cols] = np.where(up, a, b)
        total += pass_gain
        if pass_gain < tol:
            return total, False
    return total, True


def seesaw(f: BellFunctional, config: SeesawConfig = SeesawConfig()) -> SeesawResult:
    """Alternating-ascent maximization of ``f`` over states and PVMs.

    Restarts are independent (they only share the seed sequence) and are
    merged deterministically: best value wins, ties go to the lowest restart
    index.
    """
    dA = config.dA if config.dA is not None else f.d
    dB = config.dB if config.dB is not None else f.d
    if dA < f.d or dB < f.d:
        raise InputError(f"local dimensions must be at least d={f.d}, got dA={dA}, dB={dB}")
    if config.init is InitKind.IDEAL_PERTURBED and (dA != f.d or dB != f.d):
        raise InputError("ideal-perturbed initialization requires dA == dB == d")
    # The state step holds about six (dA*dB)^2 complex matrices: the Bell
    # operator, its einsum intermediate, and eigh's copy, eigenvectors and workspace.
    check_memory(6 * 16 * (dA * dB) ** 2, f"the see-saw state step at dA={dA}, dB={dB}")

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best_value, best_strategy, best_restart = -math.inf, None, -1
    trajectories: list[tuple[float, ...]] = []
    converged_flags: list[bool] = []
    cap_hits: list[int] = []

    for r, seq in enumerate(seeds):
        rng = np.random.default_rng(seq)
        if config.init is InitKind.RANDOM:
            start = random_strategy(f.d, rng, dA, dB)
        else:
            start = _perturbed_ideal(f, config.init_noise, rng)
        alice, bob = start.alice_pvms, start.bob_pvms
        (alice_frames, alice_labels), (bob_frames, bob_labels) = _frames(alice), _frames(bob)
        psi = start.state

        trajectory: list[float] = []
        converged = False
        hits = 0
        for _ in range(config.max_iters):
            w = np.tensordot(f.coeff, bob, axes=([1, 3], [0, 1]))
            psi, _ = principal_eigenvector(_operator(alice, w))
            psi_mat = psi.reshape(dA, dB)
            for frame, labels, gains in zip(alice_frames, alice_labels, _gains(psi_mat, w)):
                hits += _pair_ascent(frame, labels, gains, config.convergence_tol)[1]
            alice = _projectors(alice_frames, alice_labels, f.d)
            bob_gains = _gains(psi_mat.T, np.tensordot(f.coeff, alice, axes=([0, 2], [0, 1])))
            for frame, labels, gains in zip(bob_frames, bob_labels, bob_gains):
                hits += _pair_ascent(frame, labels, gains, config.convergence_tol)[1]
            bob = _projectors(bob_frames, bob_labels, f.d)
            value = float(np.einsum("ybij,ybji->", bob, bob_gains).real)
            trajectory.append(value)
            if len(trajectory) > 1 and abs(trajectory[-1] - trajectory[-2]) < config.convergence_tol:
                converged = True
                break
        trajectories.append(tuple(trajectory))
        converged_flags.append(converged)
        cap_hits.append(hits)

        final_value = trajectory[-1]
        if final_value > best_value:
            best_value = final_value
            best_restart = r
            best_strategy = QuantumStrategy(
                d=f.d,
                dA=dA,
                dB=dB,
                state=psi,
                alice_pvms=alice,
                bob_pvms=bob,
            )

    assert best_strategy is not None
    return SeesawResult(
        best_value=best_value,
        best_strategy=best_strategy,
        best_restart=best_restart,
        trajectory=tuple(trajectories),
        converged=tuple(converged_flags),
        pair_cap_hits=tuple(cap_hits),
    )


# ---------------------------------------------------------------------------
# CHSH coarse-graining reductions
# ---------------------------------------------------------------------------


def _check_sign_vector(d: int, o: Sequence[int]) -> tuple[int, ...]:
    o = tuple(int(v) for v in o)
    expected = d // 2 - 1
    if len(o) != expected:
        raise InputError(f"sign vector must have length {expected} for d={d}, got {len(o)}")
    if any(v not in (0, 1) for v in o):
        raise InputError(f"sign vector entries must be bits, got {o}")
    return o


def _merged_bits(d: int, o: tuple[int, ...]) -> np.ndarray:
    """Coarse outcome of each paired answer: its parity, flipped by its block's sign bit."""
    return np.arange(2 * (d // 2)) % 2 ^ np.repeat((0,) + tuple(o), 2)


def _coarse_pvms(pvms: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Two-outcome PVMs ``[x, t]`` on questions 0, 1 summing the answers with merged bit t."""
    return np.stack([pvms[:2, : len(bits)][:, bits == t].sum(axis=1) for t in (0, 1)], axis=1)


def chsh_value(s: ChshStrategy) -> float:
    """CHSH value of a two-question, two-outcome strategy."""
    return chsh_m_value(correlation_from_quantum(s), 0)


def chsh_reduction_even(s: QuantumStrategy, o: Sequence[int]) -> ChshStrategy:
    """Merge block answers into two coarse outcomes (even d), per sign vector ``o``.

    Coarse outcome 0 collects answers ``0`` and ``2m + o[m]`` (m >= 1), coarse
    outcome 1 the rest, identically for both parties; questions are
    ``x, y in {0, 1}`` and the state is unchanged.
    """
    if s.d % 2:
        raise InputError(f"even-d reduction requires even d, got {s.d}")
    bits = _merged_bits(s.d, _check_sign_vector(s.d, o))
    return ChshStrategy(
        dA=s.dA,
        dB=s.dB,
        state=s.state,
        alice_pvms=_coarse_pvms(s.alice_pvms, bits),
        bob_pvms=_coarse_pvms(s.bob_pvms, bits),
    )


def chsh_reduction_odd(s: QuantumStrategy, o: Sequence[int]) -> ChshStrategy:
    """Coarse-grain an odd-d strategy, routing answer ``d - 1`` to a fresh EPR pair.

    Answers ``0..d-2`` merge as in the even case.  On the event that a party
    answers ``d - 1`` it instead measures its half of an appended EPR pair
    with the ideal CHSH qubit measurements, so the coarse projectors are
    ``merged (x) I + P^{d-1} (x) P_qubit``.
    """
    if s.d % 2 == 0:
        raise InputError(f"odd-d reduction requires odd d, got {s.d}")
    bits = _merged_bits(s.d, _check_sign_vector(s.d, o))
    qubit = ideal_maxent_strategy(2)

    def lift(pvms: np.ndarray, qubit_pvms: np.ndarray) -> np.ndarray:
        dim = 2 * pvms.shape[-1]
        merged = np.einsum("xtij,kl->xtikjl", _coarse_pvms(pvms, bits), np.eye(2))
        routed = np.einsum("xij,xtkl->xtikjl", pvms[:2, -1], qubit_pvms[:2])
        return (merged + routed).reshape(2, 2, dim, dim)

    epr = np.eye(2) / math.sqrt(2)
    psi_mat = np.kron(s.state.reshape(s.dA, s.dB), epr)
    return ChshStrategy(
        dA=2 * s.dA,
        dB=2 * s.dB,
        state=psi_mat.reshape(-1),
        alice_pvms=lift(s.alice_pvms, qubit.alice_pvms),
        bob_pvms=lift(s.bob_pvms, qubit.bob_pvms),
    )


def _cross_terms(p: Correlation, bits: np.ndarray) -> np.ndarray:
    """Terms ``(-1)^(bit(a) + bit(b) + x*y) p(a, b | x, y)`` for x, y in {0, 1} and paired a, b."""
    n = len(bits)
    return CHSH_SIGNS[:, :, bits[:, None], bits] * p.table[:2, :2, :n, :n]


def cross_contribution(p: Correlation, o: Sequence[int]) -> float:
    """Signed cross-term contribution ``C(o)`` appearing in the reduction identity.

    Sums ``(-1)^(bit(a) + bit(b) + x*y) p(a, b | x, y)`` over questions
    ``x, y in {0, 1}`` and paired answers ``a, b`` lying in different blocks
    (the odd-d leftover answer is excluded: its contribution averages out
    against the EPR pair).
    """
    bits = _merged_bits(p.d, _check_sign_vector(p.d, o))
    block = np.arange(len(bits)) // 2
    return float(np.sum(_cross_terms(p, bits), where=block[:, None] != block))


def greedy_sign_selection(s: QuantumStrategy) -> tuple[int, ...]:
    """Choose the sign vector block by block so that ``C(o) >= 0``.

    For m = 1, 2, ... the contribution of cross terms between block m and all
    earlier blocks flips sign with ``o[m]``, so picking the non-negative
    option (ties resolve to 0) makes the total a sum of non-negative parts.
    """
    p = correlation_from_quantum(s)
    o: tuple[int, ...] = ()
    for m in range(1, s.d // 2):
        # Merged bits of blocks 0..m, block m unflipped; rows/columns 2m, 2m+1 are block m.
        terms = _cross_terms(p, _merged_bits(2 * m + 2, o + (0,)))
        partial = terms[:, :, 2 * m :, : 2 * m].sum() + terms[:, :, : 2 * m, 2 * m :].sum()
        o += (int(partial < 0),)
    return o
