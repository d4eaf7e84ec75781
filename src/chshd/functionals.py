"""Construction and evaluation of the d-outcome CHSH-like Bell functionals.

The scenario has Alice questions ``x in {0,1,2}``, Bob questions
``y in {0,1,2,3}`` and answers ``0..d-1`` per party.  A functional is a real
coefficient tensor ``coeff[x, y, a, b]``; its value on a correlation is the
plain inner product with the probability table.

Two families are provided:

* the *plain* family (:func:`build_maxent`), whose maximum self-tests the
  maximally entangled state of local dimension ``d``;
* the *tilted* family (:func:`build_tilted`), aimed at states with arbitrary
  Schmidt coefficients ``c_0..c_{d-1}``.

Both are assembled from per-block two-outcome pieces:

* ``CHSH_m`` couples answers ``{2m, 2m+1}`` on questions ``x, y in {0, 1}``
  with the familiar sign ``(-1)^(a + b + x*y)``.
* ``CHSH'_m`` couples answer labels ``{2m+1, 2m+2}`` (labels taken mod ``d``,
  so for even ``d`` the last block wraps around to answers ``{d-1, 0}``) on
  questions ``x in {0, 2}``, ``y in {2, 3}``.  The questions are relabelled
  ``f(0)=0, f(2)=1`` and ``g(2)=0, g(3)=1`` and the sign exponent uses the
  un-reduced labels, which is equivalent to using answer parities since a
  label and its mod-``d`` reduction share parity.

Both pieces are the one two-outcome sign tensor :data:`CHSH_SIGNS` placed on
the block's questions and answers by :func:`block_index`; block values are
contractions with such tensors and the builders are sums of them.

Answer pairs outside the blocks ("cross terms") are penalized with weight
``-epsilon``.  For odd ``d`` one answer per family sits outside every block;
its diagonal probabilities earn a bonus instead, and by default
(:attr:`CrossDiagonalMode.EXCLUDE`) the pairs ``(d-1, d-1)`` and ``(0, 0)``
are removed from the penalized sets so the ideal strategy is not charged for
its leftover mass.  :attr:`CrossDiagonalMode.INCLUDE` keeps them penalized.

Marginal ("tilt") terms are realized through the ``y = 0`` column, so tilted
functionals are only meaningful on no-signaling correlations; :func:`evaluate`
enforces this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Literal, Sequence

import numpy as np

from .correlations import Correlation, finite_array, no_signaling_residual
from .errors import InputError, ShapeMismatchError

#: Alice and Bob questions of each block family (plain: False, primed: True),
#: in relabelled order: ``f(0)=0, f(2)=1`` and ``g(2)=0, g(3)=1``.
_FAMILY_QUESTIONS = {False: ((0, 1), (0, 1)), True: ((0, 2), (2, 3))}

#: Questions carrying the plain blocks and the relabelled blocks, respectively.
PLAIN_QUESTIONS = tuple(product(*_FAMILY_QUESTIONS[False]))
PRIMED_QUESTIONS = tuple(product(*_FAMILY_QUESTIONS[True]))

#: Two-outcome CHSH coefficients ``(-1)^(a + b + x*y)``, indexed ``[x, y, a, b]``.
CHSH_SIGNS = np.multiply.outer([[1.0, 1.0], [1.0, -1.0]], [[1.0, -1.0], [-1.0, 1.0]])
CHSH_SIGNS.flags.writeable = False

#: Bonus coefficient on the leftover diagonal for odd d (plain family).
ODD_BONUS = math.sqrt(2.0) / 2.0

#: No-signaling tolerance applied when evaluating tilted functionals.
NS_TOL = 1e-7

_COEFF_TOL = 1e-9  # tolerance on |sum c_i^2 - 1| and on TiltedSpec round trips


class Variant(str, Enum):
    MAXENT = "maxent"
    TILTED = "tilted"


class CrossDiagonalMode(str, Enum):
    """Treatment of the odd-d leftover diagonal pairs in the cross sets."""

    EXCLUDE = "exclude"
    INCLUDE = "include"


def n_blocks(d: int) -> int:
    """Number of two-answer blocks per family."""
    return d // 2


def block_answer_pairs(d: int, primed: bool = False) -> tuple[tuple[int, int], ...]:
    """Ordered answer pair of each block; primed blocks wrap mod d for even d."""
    if primed:
        return tuple(((2 * m + 1) % d, (2 * m + 2) % d) for m in range(d // 2))
    return tuple((2 * m, 2 * m + 1) for m in range(d // 2))


def families(d: int) -> tuple[bool, ...]:
    """Block families present at local dimension d: plain, plus primed for d > 2."""
    return (False, True) if d > 2 else (False,)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, marked read-only: cached results are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def block_index(d: int, m: int, primed: bool = False) -> tuple[np.ndarray, ...]:
    """Index ``[x, y, a, b]`` selecting block m's 2x2x2x2 sub-table.

    Questions come in relabelled order; answers are ordered by their label's
    parity, i.e. by the block's outcome bit (for primed blocks the label
    ``2m+2 mod d`` comes first).
    """
    xs, ys = _FAMILY_QUESTIONS[primed]
    u, v = block_answer_pairs(d, primed)[m]
    bits = (v, u) if primed else (u, v)
    return _read_only(*np.ix_(xs, ys, bits, bits))


@lru_cache(maxsize=None)
def leftover_index(d: int, primed: bool = False) -> tuple[np.ndarray, ...]:
    """Index of the odd-d leftover diagonal of a family: ``(d-1, d-1)`` plain, ``(0, 0)`` primed."""
    xs, ys = _FAMILY_QUESTIONS[primed]
    r = 0 if primed else d - 1
    return _read_only(*np.ix_(xs, ys, (r,), (r,)))


@lru_cache(maxsize=None)
def _block_tensors(d: int, m: int, primed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tensors ``(signs, marginal)`` of block m in the full scenario.

    ``signs`` holds the block's CHSH pattern; ``marginal`` is
    ``p(u | x=0) - p(v | x=0)`` for the block's answers ``(u, v)``, read from
    the ``y = 0`` column.
    """
    signs, marginal = np.zeros((2, 3, 4, d, d))
    signs[block_index(d, m, primed)] = CHSH_SIGNS
    u, v = block_answer_pairs(d, primed)[m]
    marginal[0, 0, u], marginal[0, 0, v] = 1.0, -1.0
    return _read_only(signs, marginal)


def _contract(coeff: np.ndarray, p: Correlation) -> float:
    """Inner product of a full-scenario tensor with ``p`` on the questions both cover."""
    table = p.table[:3, :4]
    return float(np.tensordot(coeff[: table.shape[0], : table.shape[1]], table, axes=4))


def quantum_bound(d: int) -> float:
    """Largest quantum value of the plain functional (proved for even d)."""
    return 2.0 * math.sqrt(2.0) * (2 if d > 2 else 1)


def tilted_quantum_bound(d: int) -> float:
    """Value of the tilted functional on its ideal strategy, ``1 + [d > 2]``."""
    return 1.0 + (1.0 if d > 2 else 0.0)


def classical_reference_bound(d: int) -> float:
    """Classical bound of the plain functional for even d (see classical_max notes)."""
    return 2.0 * (2 if d > 2 else 1)


def _check_d(d: int) -> None:
    if d < 2:
        raise InputError(f"local dimension must satisfy d >= 2, got {d}")


def _check_full_scenario(p: Correlation, need_primed: bool) -> None:
    if p.nx < 2 or p.ny < 2:
        raise ShapeMismatchError(f"correlation must cover questions x,y in {{0,1}}, got {p.nx}x{p.ny}")
    if need_primed and (p.nx < 3 or p.ny < 4):
        raise ShapeMismatchError(
            f"correlation must cover 3 Alice and 4 Bob questions, got {p.nx}x{p.ny}"
        )


def _check_block(d: int, m: int) -> None:
    if not 0 <= m < n_blocks(d):
        raise InputError(f"block index m={m} out of range for d={d} (0..{n_blocks(d) - 1})")


# ---------------------------------------------------------------------------
# sub-functional values
# ---------------------------------------------------------------------------


def _block_value(p: Correlation, m: int, primed: bool, alpha: float = 0.0) -> float:
    _check_full_scenario(p, need_primed=primed)
    _check_block(p.d, m)
    signs, marginal = _block_tensors(p.d, m, primed)
    return _contract(signs + alpha * marginal, p)


def _check_alpha(alpha: float) -> float:
    if not -2.0 < alpha < 2.0:
        raise InputError(f"tilt parameter must satisfy |alpha| < 2, got {alpha}")
    return alpha


def chsh_m_value(p: Correlation, m: int) -> float:
    """Value of the block functional CHSH_m on ``p``.

    ``sum_{x,y in {0,1}} sum_{a,b in {2m, 2m+1}} (-1)^(a + b + x*y) p(a,b|x,y)``.
    """
    return _block_value(p, m, primed=False)


def chsh_prime_m_value(p: Correlation, m: int) -> float:
    """Value of the relabelled block functional CHSH'_m on ``p``.

    Labels ``2m+1, 2m+2`` keep their parity in the sign exponent; the observed
    answers are the labels reduced mod d.
    """
    return _block_value(p, m, primed=True)


def tchsh_m_value(p: Correlation, m: int, alpha: float) -> float:
    """Tilted block value ``alpha * [p(2m|x=0) - p(2m+1|x=0)] + CHSH_m``.

    The marginal is read from the ``y = 0`` column, which is unambiguous for
    no-signaling correlations.  ``alpha`` may be negative; its sign selects
    which of the two block answers the marginal term rewards.
    """
    return _block_value(p, m, False, _check_alpha(alpha))


def tchsh_prime_m_value(p: Correlation, m: int, alpha: float) -> float:
    """Tilted relabelled block value; marginal answers are ``2m+1`` and ``2m+2 mod d``."""
    return _block_value(p, m, True, _check_alpha(alpha))


# ---------------------------------------------------------------------------
# cross terms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cross_masks(d: int, mode: CrossDiagonalMode) -> tuple[np.ndarray, np.ndarray]:
    """Read-only boolean ``[x, y, a, b]`` masks of the penalized sets ``C`` and ``C'``.

    Each covers its family's questions and the answer pairs outside every
    block of that family; in EXCLUDE mode (odd d only) the leftover diagonal
    pairs ``(d-1, d-1)`` and ``(0, 0)`` are dropped from ``C`` and ``C'``.
    """
    _check_d(d)
    masks = []
    for primed in (False, True):
        mask = np.zeros((3, 4, d, d), dtype=bool)
        mask[np.ix_(*_FAMILY_QUESTIONS[primed])] = True
        for m in range(n_blocks(d)):
            mask[block_index(d, m, primed)] = False
        if d % 2 == 1 and mode is CrossDiagonalMode.EXCLUDE:
            mask[leftover_index(d, primed)] = False
        mask.flags.writeable = False
        masks.append(mask)
    return masks[0], masks[1]


def cross_sets(
    d: int, mode: CrossDiagonalMode = CrossDiagonalMode.EXCLUDE
) -> tuple[frozenset, frozenset]:
    """The penalized index sets ``(C, C')`` as sets of ``(a, b, x, y)`` tuples.

    ``C`` covers questions ``{0,1}^2`` and answer pairs outside every plain
    block; ``C'`` covers ``{0,2} x {2,3}`` and pairs outside every primed
    block.  In EXCLUDE mode (odd d only) the leftover diagonal pairs
    ``(d-1, d-1)`` and ``(0, 0)`` are dropped from ``C`` and ``C'``.
    """
    return tuple(
        frozenset((int(a), int(b), int(x), int(y)) for x, y, a, b in zip(*np.nonzero(mask)))
        for mask in _cross_masks(d, mode)
    )


def cross_value(
    p: Correlation,
    which: Literal["C", "Cprime"],
    mode: CrossDiagonalMode = CrossDiagonalMode.EXCLUDE,
) -> float:
    """Total probability mass of ``p`` on one of the penalized sets."""
    if which not in ("C", "Cprime"):
        raise InputError(f"cross set selector must be 'C' or 'Cprime', got {which!r}")
    _check_full_scenario(p, need_primed=which == "Cprime")
    return _contract(_cross_masks(p.d, mode)[which == "Cprime"], p)


# ---------------------------------------------------------------------------
# tilted parameters
# ---------------------------------------------------------------------------


def _alpha_from_theta(theta: float) -> float:
    """Tilt strength with ``sin 2theta = sqrt((4 - a^2) / (4 + a^2))``.

    Signed: positive for theta < pi/4 (first coefficient dominant), negative
    for theta > pi/4, so that the block's marginal term always rewards the
    heavier answer.
    """
    s, c = math.sin(2 * theta), math.cos(2 * theta)
    return 2.0 * c / math.sqrt(1.0 + s * s)


@dataclass(frozen=True)
class TiltedSpec:
    """Derived per-block parameters of a tilted functional.

    All arrays have one entry per block (``d // 2``).  ``theta[m]`` is the
    block angle ``arctan(c_{2m+1} / c_{2m})``; ``alpha`` is the tilt strength,
    ``i_alpha = sqrt(8 + 2 alpha^2)`` the corresponding quantum maximum used
    for normalization, and ``mu = arctan(sin 2 theta)`` Bob's ideal
    measurement angle.  The ``_prime`` arrays are the primed-block analogues
    with ``theta_prime[m] = arctan(c_{(2m+2) mod d} / c_{2m+1})``.

    ``alpha`` entries are signed: negative exactly when the block's second
    coefficient exceeds its first, which keeps the normalized block maximum
    attainable by the target state.  ``|alpha| < 2`` always, and the round
    trip ``sin 2 theta = sqrt((4 - alpha^2) / (4 + alpha^2))`` holds for
    every block.
    """

    c: tuple[float, ...]
    theta: tuple[float, ...]
    alpha: tuple[float, ...]
    i_alpha: tuple[float, ...]
    mu: tuple[float, ...]
    theta_prime: tuple[float, ...]
    alpha_prime: tuple[float, ...]
    i_alpha_prime: tuple[float, ...]
    mu_prime: tuple[float, ...]

    @property
    def d(self) -> int:
        return len(self.c)

    @classmethod
    def from_coefficients(cls, c: Sequence[float], tol: float = _COEFF_TOL) -> TiltedSpec:
        c = tuple(float(v) for v in c)
        d = len(c)
        _check_d(d)
        if any(not 0.0 < v < 1.0 for v in c):
            raise InputError(f"state coefficients must lie strictly in (0, 1), got {c}")
        norm_defect = abs(sum(v * v for v in c) - 1.0)
        if norm_defect > tol:
            raise InputError(
                f"state coefficients must be normalized: |sum c_i^2 - 1| = {norm_defect:.3e} > {tol:.3e}"
            )
        return cls(c, *_block_parameters(c, primed=False), *_block_parameters(c, primed=True))


def _block_parameters(c: tuple[float, ...], primed: bool) -> tuple[tuple[float, ...], ...]:
    """``(theta, alpha, i_alpha, mu)`` of one block family, one entry per block on answers ``(u, v)``."""
    theta = tuple(math.atan2(c[v], c[u]) for u, v in block_answer_pairs(len(c), primed))
    alpha = tuple(_alpha_from_theta(t) for t in theta)
    i_alpha = tuple(math.sqrt(8.0 + 2.0 * a * a) for a in alpha)
    return theta, alpha, i_alpha, tuple(math.atan(math.sin(2 * t)) for t in theta)


@lru_cache(maxsize=None)
def uniform_spec(d: int) -> TiltedSpec:
    """The spec at the uniform coefficients ``1/sqrt(d)``, where the tilted family meets the plain one.

    Every tilt vanishes there, so ``alpha`` and ``alpha_prime`` are exactly 0
    and the plain family's blocks are untilted CHSH blocks;
    :meth:`TiltedSpec.from_coefficients` leaves the round-off of
    ``cos(2 * atan2(c, c))``, about 9e-17, in each.
    """
    _check_d(d)
    zero = (0.0,) * n_blocks(d)
    return replace(TiltedSpec.from_coefficients((1 / math.sqrt(d),) * d), alpha=zero, alpha_prime=zero)


# ---------------------------------------------------------------------------
# functional container and builders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BellFunctional:
    """A linear functional on correlations, stored as its coefficient tensor.

    The variant is decided here: a tilted functional carries the
    :class:`TiltedSpec` of its target state and a plain one carries none.
    :attr:`spec` and :attr:`bound` give every caller the target of either.
    """

    d: int
    epsilon: float
    variant: Variant
    mode: CrossDiagonalMode
    coeff: np.ndarray
    tilted_spec: TiltedSpec | None = None

    def __post_init__(self):
        coeff = finite_array(self.coeff, float, "coefficient tensor")
        if coeff.shape != (3, 4, self.d, self.d):
            raise ShapeMismatchError(
                f"coefficient tensor must have shape (3, 4, {self.d}, {self.d}), got {coeff.shape}"
            )
        object.__setattr__(self, "coeff", coeff)
        tilted = self.variant is Variant.TILTED
        if tilted != (self.tilted_spec is not None):
            raise InputError(
                f"a {self.variant.value} functional {'needs a' if tilted else 'carries no'} tilted spec"
            )
        if tilted and self.tilted_spec.d != self.d:
            raise InputError(f"functional d={self.d} but its tilted spec has d={self.tilted_spec.d}")

    @property
    def spec(self) -> TiltedSpec:
        """The target's spec: the tilted spec, or the uniform one for the plain family."""
        return self.tilted_spec or uniform_spec(self.d)

    @property
    def bound(self) -> float:
        """The value of the ideal strategy: ``1 + [d > 2]`` tilted, ``2 sqrt(2) (1 + [d > 2])`` plain."""
        return tilted_quantum_bound(self.d) if self.variant is Variant.TILTED else quantum_bound(self.d)


def _check_epsilon(epsilon: float, allow_zero_epsilon: bool) -> None:
    if not math.isfinite(epsilon):
        raise InputError(f"cross-term penalty epsilon must be finite, got {epsilon}")
    if epsilon < 0 or (epsilon == 0 and not allow_zero_epsilon):
        raise InputError(
            f"cross-term penalty must be positive, got {epsilon}; "
            "pass allow_zero_epsilon=True (research use) to permit 0"
        )


def _assemble(
    d: int,
    blocks: list[tuple[bool, int, float, float]],
    epsilon: float,
    mode: CrossDiagonalMode,
    bonus: float,
) -> np.ndarray:
    """Coefficient tensor from ``(primed, m, scale, alpha)`` block terms.

    ``blocks`` lists plain blocks before primed ones.  Each entry takes at
    most one term of each kind, in the fixed order block sign, plain marginal,
    primed marginal, ``-epsilon``, bonus, so the tensor is reproducible bit for
    bit: exact classical values and their argmax ties depend on it.  Terms are
    added in place on their block's entries, so memory stays ``O(d^2)``.
    """
    coeff = np.zeros((3, 4, d, d))
    for primed, m, scale, _ in blocks:
        coeff[block_index(d, m, primed)] += scale * CHSH_SIGNS
    for primed, m, scale, alpha in blocks:
        u, v = block_answer_pairs(d, primed)[m]
        coeff[0, 0, u] += scale * alpha
        coeff[0, 0, v] -= scale * alpha
    c, c_prime = _cross_masks(d, mode)
    coeff -= epsilon * (c | c_prime)
    if d % 2 == 1:
        coeff[leftover_index(d)] += bonus
        coeff[leftover_index(d, primed=True)] += bonus
    return coeff


def build_maxent(
    d: int,
    epsilon: float,
    mode: CrossDiagonalMode = CrossDiagonalMode.EXCLUDE,
    *,
    allow_zero_epsilon: bool = False,
) -> BellFunctional:
    """Functional targeting the maximally entangled state of local dimension d.

    ``sum_m CHSH_m  (+ sum_m CHSH'_m for d > 2)  - epsilon (CROSS + CROSS')``,
    plus, for odd d, the bonus ``sqrt(2)/2`` on the leftover diagonal
    probabilities ``p(d-1, d-1 | x, y in {0,1})`` and ``p(0, 0 | x in {0,2},
    y in {2,3})``.
    """
    _check_d(d)
    _check_epsilon(epsilon, allow_zero_epsilon)
    blocks = [(primed, m, 1.0, 0.0) for primed in families(d) for m in range(n_blocks(d))]
    coeff = _assemble(d, blocks, epsilon, mode, ODD_BONUS)
    return BellFunctional(d=d, epsilon=float(epsilon), variant=Variant.MAXENT, mode=mode, coeff=coeff)


def build_tilted(
    c: Sequence[float],
    epsilon: float,
    mode: CrossDiagonalMode = CrossDiagonalMode.EXCLUDE,
    *,
    allow_zero_epsilon: bool = False,
) -> BellFunctional:
    """Functional targeting the state with Schmidt coefficients ``c``.

    Each block contributes its tilted CHSH piece normalized by its own quantum
    maximum: ``sum_m (1 / i_alpha[m]) tCHSH_m(alpha[m])`` plus the primed
    analogue for d > 2, ``- epsilon (CROSS + CROSS')``, and for odd d a bonus
    of ``1/4`` on the leftover diagonals.  At uniform coefficients every tilt
    vanishes and the non-cross part equals the plain functional divided by
    ``2 sqrt(2)``.
    """
    spec = TiltedSpec.from_coefficients(c)
    d = spec.d
    _check_epsilon(epsilon, allow_zero_epsilon)
    blocks = [(False, m, 1.0 / spec.i_alpha[m], spec.alpha[m]) for m in range(n_blocks(d))]
    if d > 2:
        blocks += [
            (True, m, 1.0 / spec.i_alpha_prime[m], spec.alpha_prime[m]) for m in range(n_blocks(d))
        ]
    coeff = _assemble(d, blocks, epsilon, mode, 0.25)
    return BellFunctional(
        d=d,
        epsilon=float(epsilon),
        variant=Variant.TILTED,
        mode=mode,
        coeff=coeff,
        tilted_spec=spec,
    )


def evaluate(f: BellFunctional, p: Correlation, *, ns_tol: float = NS_TOL) -> float:
    """Value of the functional on a correlation (plain inner product).

    Tilted functionals embed marginal terms in the ``y = 0`` column, so they
    are only evaluated on no-signaling tables; inputs whose no-signaling
    residual exceeds ``ns_tol`` are rejected.
    """
    if p.d != f.d:
        raise ShapeMismatchError(f"dimension mismatch: functional d={f.d}, correlation d={p.d}")
    if p.nx != 3 or p.ny != 4:
        raise ShapeMismatchError(f"correlation must cover the 3x4-question scenario, got {p.nx}x{p.ny}")
    if f.variant is Variant.TILTED:
        residual = no_signaling_residual(p)
        if residual > ns_tol:
            raise InputError(
                f"tilted functionals require no-signaling input: residual {residual:.3e} > {ns_tol:.3e}"
            )
    return float(np.tensordot(f.coeff, p.table, axes=4))
