"""Structural verification of correlations against the self-testing criteria.

A correlation that attains the quantum bound of the maximal-entanglement
functional is unique, so at the level of raw statistics optimality forces a
rigid shape which these routines check directly:

1. the Bell value attains the quantum bound;
2. all penalized cross terms carry zero mass;
3. each block value saturates its weighted maximum, ``w_m * 2 sqrt(2)``;
4. the block weights are uniform: ``2/d`` per block, plus ``1/d`` on each
   leftover diagonal for odd ``d``;
5. every populated block, renormalized by its weight, matches the ideal
   correlation's own block renormalized the same way, entrywise;
6. the full table matches the ideal correlation entrywise (at a looser
   tolerance), confirming that the local certificates pin down the unique
   global maximizer.

The tilted family generalizes this structure to a target state with Schmidt
coefficients ``c``: block values saturate ``w_m * i_alpha[m]``, the weight
of the block on answers ``(u, v)`` is ``c_u^2 + c_v^2`` and the block shapes
are those of the tilted ideal correlation.  Both verifiers run this one
structural check on the functional's target, read from the functional:
its :class:`~chshd.functionals.TiltedSpec` (``f.spec``), the ideal
correlation of that spec and the bound (``f.bound``).  The plain family is
the tilted structure at the uniform spec ``c = 1/sqrt(d)``, whose tilts are
0, whose block maxima are ``2 sqrt(2)`` and whose weights are ``2/d`` and
``1/d`` up to round-off.  The verifiers differ only in the variant they
accept and in their verdict labels: since the tilted bound is conjectural for
``d > 2``, a fully consistent correlation is labelled
*conjecture-consistent*, never *self-tested*.

A verification tolerance outside ``0 <= tol < inf`` is refused with
:class:`~chshd.errors.InputError` before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .correlations import Correlation
from .errors import CrossTermMassError, InputError, UndefinedBlockError
from .functionals import (
    BellFunctional,
    CrossDiagonalMode,
    Variant,
    _block_value,
    _check_block,
    _read_only,
    block_answer_pairs,
    block_index,
    cross_value,
    evaluate,
    families,
    leftover_index,
    n_blocks,
)
from .ideal import ideal_maxent_correlation, ideal_tilted_correlation

#: Default verification tolerance (looser than the 1e-9 generation tolerance,
#: to absorb accumulated arithmetic in user-supplied correlations).
VERIFY_TOL = 1e-7

#: The entrywise ideal-correlation comparison runs at this multiple of ``tol``.
IDEAL_COMPARISON_FACTOR = 10.0

#: Block weights at or below this floor cannot be renormalized at all.
WEIGHT_FLOOR = 1e-12


def cross_mass(p: Correlation, mode: CrossDiagonalMode = CrossDiagonalMode.EXCLUDE) -> float:
    """Total probability mass on the penalized cross terms of both question groups."""
    return cross_value(p, "C", mode) + cross_value(p, "Cprime", mode)


@dataclass(frozen=True)
class BlockWeights:
    """Per-block probability masses extracted from a block-diagonal correlation.

    ``w[m]`` is the mass of plain block m, anchored at questions ``(0, 0)``;
    ``w_prime[m]`` that of primed block m, anchored at ``(2, 2)`` (empty for
    d = 2).  ``leftover`` holds the two odd-d diagonal masses
    ``(p(d-1, d-1 | 0, 0), p(0, 0 | 2, 2))`` and is empty for even d.
    ``consistency_residual`` is the largest deviation of any such mass from
    its anchor value across the other question pairs of its group; a genuine
    block decomposition makes every mass question-independent.
    """

    w: tuple[float, ...]
    w_prime: tuple[float, ...]
    leftover: tuple[float, ...]
    consistency_residual: float


def _anchored_mass(p: Correlation, index: tuple, primed: bool) -> tuple[float, float]:
    """Mass of ``p`` on a block's answers at the family's anchor questions, and
    its largest deviation across the family's other question pairs."""
    masses = p.table[index].sum(axis=(2, 3))  # [f(x), g(y)]
    anchor = masses[1, 0] if primed else masses[0, 0]  # questions (2, 2) and (0, 0)
    return float(anchor), float(np.abs(masses - anchor).max())


@lru_cache(maxsize=None)
def _blocks_index(d: int) -> tuple[np.ndarray, ...]:
    """Index ``[k, x, y, a, b]`` gathering every block, plain ones first.

    Each block is laid out as :func:`block_index` gives it, except that primed
    blocks list question 2 before question 0, so that every block's anchor
    questions, ``(0, 0)`` or ``(2, 2)``, come first.
    """
    blocks = [block_index(d, m, primed) for primed in families(d) for m in range(n_blocks(d))]
    x, y, a, b = map(np.stack, zip(*blocks))
    x[n_blocks(d) :] = x[n_blocks(d) :, ::-1]
    return _read_only(x, y, a, b)


def _renormalized_blocks(table: np.ndarray, d: int, keep: np.ndarray) -> np.ndarray:
    """The kept blocks of ``table``, ``[k, x, y, a, b]``, each divided by its anchor weight."""
    blocks = table[_blocks_index(d)][keep]
    return blocks / blocks[:, 0, 0].sum(axis=(1, 2))[:, None, None, None, None]


def extract_block_weights(
    p: Correlation,
    mode: CrossDiagonalMode = CrossDiagonalMode.EXCLUDE,
    tol: float = VERIFY_TOL,
) -> BlockWeights:
    """Block masses of ``p``, provided its cross terms are negligible.

    Block masses are only well-defined block *weights* when the correlation
    concentrates on the block-diagonal, so the extraction refuses with
    :class:`CrossTermMassError` when the penalized cross mass exceeds ``tol``.
    Pass ``tol=math.inf`` to extract raw masses unconditionally.
    """
    mass = cross_mass(p, mode)
    if not mass <= tol:
        raise CrossTermMassError(mass, tol)
    d = p.d
    masses = p.table[_blocks_index(d)].sum(axis=(3, 4))  # [k, x, y], anchor questions first
    anchors = masses[:, 0, 0]
    residual = float(np.abs(masses - anchors[:, None, None]).max())
    leftover = [_anchored_mass(p, leftover_index(d, pr), pr) for pr in (False, True) if d % 2]
    return BlockWeights(
        w=tuple(anchors[: n_blocks(d)].tolist()),
        w_prime=tuple(anchors[n_blocks(d) :].tolist()),
        leftover=tuple(v for v, _ in leftover),
        consistency_residual=max([residual, *(r for _, r in leftover)]),
    )


def block_correlation(
    p: Correlation,
    m: int,
    primed: bool = False,
    weight_tol: float = WEIGHT_FLOOR,
) -> Correlation:
    """Two-outcome correlation of block ``m``, renormalized by its anchor weight.

    Answer labels reduce to their parity bit; primed blocks additionally
    relabel the questions ``x in {0, 2} -> x // 2`` and ``y in {2, 3} -> y - 2``,
    under which their sign pattern matches plain CHSH.  Raises
    :class:`UndefinedBlockError` when the block's weight is at most
    ``weight_tol``.
    """
    d = p.d
    _check_block(d, m)
    index = block_index(d, m, primed)
    weight, _ = _anchored_mass(p, index, primed)
    if weight <= weight_tol:
        raise UndefinedBlockError(
            f"{'primed' if primed else 'plain'} block {m} carries weight {weight:.3e} "
            f"<= {weight_tol:.3e}; its renormalized correlation is undefined"
        )
    return Correlation(d=2, table=p.table[index] / weight, quantum_generated=p.quantum_generated)


@lru_cache(maxsize=1)
def ideal_chsh_block() -> Correlation:
    """The ideal two-outcome CHSH correlation: the d = 2 plain ideal on questions 0 and 1.

    Generated once from the d = 2 ideal strategy rather than hard-coded.  The
    verifiers' shape check does not use it: each block is compared with the
    same block of the ideal correlation of the functional's spec.
    """
    full = ideal_maxent_correlation(2)
    return Correlation(d=2, table=full.table[:2, :2].copy(), quantum_generated=True)


@dataclass(frozen=True)
class SelfTestCheck:
    """One verification criterion: passes iff ``measured <= tolerance``."""

    name: str
    passed: bool
    measured: float
    tolerance: float


@dataclass(frozen=True)
class SelfTestReport:
    """Outcome of the structural verification.

    ``cross_mass`` is the measured penalized mass, ``block_deviation`` the
    largest entrywise distance of any populated renormalized block from its
    reference block correlation.  ``passed`` is true iff every check passed;
    ``verdict`` renders it as ``"self-tested"``/``"failed"`` for the
    maximal-entanglement family and ``"conjecture-consistent"``/
    ``"inconsistent"`` for the tilted family, whose bound is conjectural.
    """

    d: int
    variant: Variant
    bell_value: float
    bound: float
    cross_mass: float
    weights: BlockWeights
    block_deviation: float
    checks: tuple[SelfTestCheck, ...]
    passed: bool
    verdict: str

    def check(self, name: str) -> SelfTestCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _check(name: str, measured: float, tolerance: float) -> SelfTestCheck:
    measured = float(measured)
    return SelfTestCheck(
        name=name, passed=bool(measured <= tolerance), measured=measured, tolerance=float(tolerance)
    )


#: Verdict labels ``(passed, failed)`` by variant value.  The tilted bound is
#: conjectural for d > 2, so a consistent tilted correlation is never *self-tested*.
_VERDICTS = {"maxent": ("self-tested", "failed"), "tilted": ("conjecture-consistent", "inconsistent")}


def _check_inputs(p: Correlation, f: BellFunctional, tol: float, variant: str, what: str) -> None:
    """Refuse a functional of another variant, a dimension mismatch and a tolerance outside ``[0, inf)``."""
    if f.variant.value != variant:
        raise InputError(f"expected {what} functional, got variant {f.variant.value!r}")
    if p.d != f.d:
        raise InputError(f"dimension mismatch: correlation d={p.d}, functional d={f.d}")
    if not 0.0 <= tol < math.inf:
        raise InputError(f"verification tolerance must satisfy 0 <= tol < inf, got {tol}")


def _structural_report(p: Correlation, f: BellFunctional, tol: float) -> SelfTestReport:
    """Assemble the report against the ideal correlation of ``f.spec``.

    Block k on answers ``(u, v)``, plain blocks first, is measured with its
    tilt ``alpha[k]`` (``alpha_prime`` for primed blocks; 0 for the plain
    family); it must carry weight ``c_u^2 + c_v^2`` and saturate
    ``w_k * i_alpha[k]``.  The odd-d leftover diagonals must carry
    ``c_{d-1}^2`` and ``c_0^2``.
    """
    d, spec = f.d, f.spec
    ideal = ideal_tilted_correlation(spec)
    value = evaluate(f, p)
    mass = cross_mass(p, f.mode)
    # Raw masses regardless of cross mass: the dedicated check reports it, and
    # this keeps every criterion measurable on perturbed input.
    weights = extract_block_weights(p, f.mode, tol=math.inf)
    c, w = spec.c, weights.w + weights.w_prime
    blocks = [(primed, m, pair) for primed in families(d) for m, pair in enumerate(block_answer_pairs(d, primed))]
    # zip stops at the blocks present: d = 2 has no primed ones.
    per_block = zip(blocks, w, spec.alpha + spec.alpha_prime, spec.i_alpha + spec.i_alpha_prime)
    saturation = max(
        abs(_block_value(p, m, primed, alpha) - w_k * max_k) for (primed, m, _), w_k, alpha, max_k in per_block
    )
    targets = [c[u] ** 2 + c[v] ** 2 for _, _, (u, v) in blocks]
    # For even d there is no leftover, and zip drops the two leftover targets.
    pairs = zip(w + weights.leftover, targets + [c[d - 1] ** 2, c[0] ** 2])
    weight_dev = max(weights.consistency_residual, *(abs(got - want) for got, want in pairs))

    # Each populated block against the ideal's block, both renormalized.
    populated = np.array(w) > max(tol, WEIGHT_FLOOR)
    got, want = (_renormalized_blocks(t.table, d, populated) for t in (p, ideal))
    block_dev = float(np.abs(got - want).max(initial=0.0))

    checks = (
        _check("attains_bound", abs(value - f.bound), tol),
        _check("cross_terms_vanish", mass, tol),
        _check("blocks_saturate", saturation, tol),
        _check("block_weights_match", weight_dev, tol),
        _check("block_shape_matches", block_dev, tol),
        _check("matches_ideal_correlation", np.abs(p.table - ideal.table).max(), IDEAL_COMPARISON_FACTOR * tol),
    )
    passed = all(c.passed for c in checks)
    return SelfTestReport(
        d=d,
        variant=f.variant,
        bell_value=value,
        bound=f.bound,
        cross_mass=mass,
        weights=weights,
        block_deviation=block_dev,
        checks=checks,
        passed=passed,
        verdict=_VERDICTS[f.variant.value][0 if passed else 1],
    )


def verify_selftest(p: Correlation, f: BellFunctional, tol: float = VERIFY_TOL) -> SelfTestReport:
    """Verify that ``p`` has the rigid structure certified at the quantum bound.

    Runs the six checks listed in the module docstring; the verdict is
    ``"self-tested"`` iff all of them pass at their tolerance, and a passing
    correlation is guaranteed (and confirmed entrywise by the final check) to
    equal the ideal correlation.

    Raises:
        InputError: for a functional of another variant, a dimension
            mismatch, or a tolerance outside ``0 <= tol < inf``.
    """
    _check_inputs(p, f, tol, "maxent", "a maximal-entanglement")
    return _structural_report(p, f, tol)


def verify_selftest_tilted(
    p: Correlation, f: BellFunctional, tol: float = VERIFY_TOL
) -> SelfTestReport:
    """Verify ``p`` against the tilted functional's conjectured optimal structure.

    Mirrors :func:`verify_selftest` with the tilted targets: the bound
    ``1 + [d > 2]``, per-block saturation at ``w_m * i_alpha[m]``, weights
    equal to the squared target coefficients, and block shapes taken from the
    tilted ideal correlation.  Because the bound is proved only for d = 2, a
    fully consistent correlation is labelled ``"conjecture-consistent"``.

    Raises:
        InputError: for a functional of another variant, a dimension
            mismatch, or a tolerance outside ``0 <= tol < inf``.
    """
    _check_inputs(p, f, tol, "tilted", "a tilted")
    return _structural_report(p, f, tol)
