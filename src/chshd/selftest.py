"""Structural verification of correlations against the self-testing criteria.

A correlation that attains the quantum bound of the maximal-entanglement
functional is unique, so at the level of raw statistics optimality forces a
rigid shape which these routines check directly:

1. the Bell value attains the quantum bound;
2. all penalized cross terms carry zero mass;
3. each block value saturates its weighted maximum, ``w_m * 2 sqrt(2)``;
4. the block weights are uniform: ``2/d`` per block, plus ``1/d`` on each
   leftover diagonal for odd ``d``;
5. every populated block, renormalized and reduced to bit labels, reproduces
   the ideal two-outcome CHSH correlation entrywise;
6. the full table matches the ideal correlation entrywise (at a looser
   tolerance), confirming that the local certificates pin down the unique
   global maximizer.

The tilted variant runs the same structural checks against its own ideal
correlation (block values saturate ``w_m * i_alpha[m]``, weights match the
squared target coefficients, block shapes match the per-block tilted-CHSH
correlations), but since its quantum bound is conjectural for ``d > 2`` a
fully consistent correlation is labelled *conjecture-consistent*, never
*self-tested*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .correlations import Correlation
from .errors import CrossTermMassError, InputError, UndefinedBlockError
from .functionals import (
    BellFunctional,
    CrossDiagonalMode,
    Variant,
    _check_block,
    block_index,
    chsh_m_value,
    chsh_prime_m_value,
    cross_value,
    evaluate,
    families,
    leftover_index,
    n_blocks,
    quantum_bound,
    tchsh_m_value,
    tchsh_prime_m_value,
    tilted_quantum_bound,
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
    blocks = {
        primed: [_anchored_mass(p, block_index(d, m, primed), primed) for m in range(n_blocks(d))]
        for primed in families(d)
    }
    w, w_prime = blocks[False], blocks.get(True, [])
    leftover = [_anchored_mass(p, leftover_index(d, pr), pr) for pr in (False, True) if d % 2]
    return BlockWeights(
        w=tuple(v for v, _ in w),
        w_prime=tuple(v for v, _ in w_prime),
        leftover=tuple(v for v, _ in leftover),
        consistency_residual=max(r for _, r in w + w_prime + leftover),
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
    """The ideal two-outcome CHSH correlation every block is compared against.

    Generated once from the d = 2 ideal strategy rather than hard-coded.
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


def _structural_report(
    p: Correlation,
    f: BellFunctional,
    tol: float,
    bound: float,
    block_values: Sequence[float],
    block_maxima: Sequence[float],
    weight_targets: tuple[Sequence[float], Sequence[float], Sequence[float]],
    reference_block: Callable[[int, bool], Correlation],
    ideal: Correlation,
    verdicts: tuple[str, str],
) -> SelfTestReport:
    """Assemble the report from the family-specific targets.

    ``block_values`` lists the measured block functionals (plain blocks first,
    then primed), ``block_maxima`` the per-block quantum maxima so that block
    ``k`` must saturate ``weight_k * block_maxima[k]``.
    """
    d = f.d
    value = evaluate(f, p)
    checks = [_check("attains_bound", abs(value - bound), tol)]

    mass = cross_mass(p, f.mode)
    checks.append(_check("cross_terms_vanish", mass, tol))

    # Raw masses regardless of cross mass: the dedicated check above already
    # reports it, and this keeps every criterion measurable on perturbed input.
    weights = extract_block_weights(p, f.mode, tol=math.inf)
    all_weights = weights.w + weights.w_prime

    saturation = max(
        abs(value_k - w_k * max_k)
        for value_k, w_k, max_k in zip(block_values, all_weights, block_maxima)
    )
    checks.append(_check("blocks_saturate", saturation, tol))

    weight_dev = weights.consistency_residual
    for got, want in zip(weights.w, weight_targets[0]):
        weight_dev = max(weight_dev, abs(got - want))
    for got, want in zip(weights.w_prime, weight_targets[1]):
        weight_dev = max(weight_dev, abs(got - want))
    for got, want in zip(weights.leftover, weight_targets[2]):
        weight_dev = max(weight_dev, abs(got - want))
    checks.append(_check("block_weights_match", weight_dev, tol))

    block_dev = 0.0
    for primed in families(d):
        for m in range(n_blocks(d)):
            weight = (weights.w_prime if primed else weights.w)[m]
            if weight <= tol:
                continue  # unpopulated: nothing to compare
            block = block_correlation(p, m, primed=primed)
            dev = float(np.max(np.abs(block.table - reference_block(m, primed).table)))
            block_dev = max(block_dev, dev)
    checks.append(_check("block_shape_matches", block_dev, tol))

    ideal_dev = float(np.max(np.abs(p.table - ideal.table)))
    checks.append(_check("matches_ideal_correlation", ideal_dev, IDEAL_COMPARISON_FACTOR * tol))

    passed = all(c.passed for c in checks)
    return SelfTestReport(
        d=d,
        variant=f.variant,
        bell_value=value,
        bound=bound,
        cross_mass=mass,
        weights=weights,
        block_deviation=block_dev,
        checks=tuple(checks),
        passed=passed,
        verdict=verdicts[0] if passed else verdicts[1],
    )


def verify_selftest(p: Correlation, f: BellFunctional, tol: float = VERIFY_TOL) -> SelfTestReport:
    """Verify that ``p`` has the rigid structure certified at the quantum bound.

    Runs the six checks listed in the module docstring; the verdict is
    ``"self-tested"`` iff all of them pass at their tolerance, and a passing
    correlation is guaranteed (and confirmed entrywise by the final check) to
    equal the ideal correlation.
    """
    if f.variant is not Variant.MAXENT:
        raise InputError(
            f"expected a maximal-entanglement functional, got variant {f.variant.value!r}"
        )
    if p.d != f.d:
        raise InputError(f"dimension mismatch: correlation d={p.d}, functional d={f.d}")
    d = f.d

    block_values = [chsh_m_value(p, m) for m in range(n_blocks(d))]
    if d > 2:
        block_values += [chsh_prime_m_value(p, m) for m in range(n_blocks(d))]
    n_total = len(block_values)

    uniform = tuple(2.0 / d for _ in range(n_blocks(d)))
    return _structural_report(
        p,
        f,
        tol,
        bound=quantum_bound(d),
        block_values=block_values,
        block_maxima=[2.0 * math.sqrt(2.0)] * n_total,
        weight_targets=(
            uniform,
            uniform if d > 2 else (),
            (1.0 / d, 1.0 / d) if d % 2 else (),
        ),
        reference_block=lambda m, primed: ideal_chsh_block(),
        ideal=ideal_maxent_correlation(d),
        verdicts=("self-tested", "failed"),
    )


def verify_selftest_tilted(
    p: Correlation, f: BellFunctional, tol: float = VERIFY_TOL
) -> SelfTestReport:
    """Verify ``p`` against the tilted functional's conjectured optimal structure.

    Mirrors :func:`verify_selftest` with the tilted targets: the bound
    ``1 + [d > 2]``, per-block saturation at ``w_m * i_alpha[m]``, weights
    equal to the squared target coefficients, and block shapes taken from the
    tilted ideal correlation.  Because the bound is proved only for d = 2, a
    fully consistent correlation is labelled ``"conjecture-consistent"``.
    """
    if f.variant is not Variant.TILTED or f.tilted_spec is None:
        raise InputError(f"expected a tilted functional, got variant {f.variant.value!r}")
    if p.d != f.d:
        raise InputError(f"dimension mismatch: correlation d={p.d}, functional d={f.d}")
    d = f.d
    spec = f.tilted_spec

    block_values = [tchsh_m_value(p, m, spec.alpha[m]) for m in range(n_blocks(d))]
    block_maxima = list(spec.i_alpha)
    if d > 2:
        block_values += [tchsh_prime_m_value(p, m, spec.alpha_prime[m]) for m in range(n_blocks(d))]
        block_maxima += list(spec.i_alpha_prime)

    c = spec.c
    w_target = tuple(c[2 * m] ** 2 + c[2 * m + 1] ** 2 for m in range(n_blocks(d)))
    wp_target = tuple(
        c[(2 * m + 1) % d] ** 2 + c[(2 * m + 2) % d] ** 2 for m in range(n_blocks(d))
    )
    ideal = ideal_tilted_correlation(spec)
    return _structural_report(
        p,
        f,
        tol,
        bound=tilted_quantum_bound(d),
        block_values=block_values,
        block_maxima=block_maxima,
        weight_targets=(
            w_target,
            wp_target if d > 2 else (),
            (c[d - 1] ** 2, c[0] ** 2) if d % 2 else (),
        ),
        reference_block=lambda m, primed: block_correlation(ideal, m, primed=primed),
        ideal=ideal,
        verdicts=("conjecture-consistent", "inconsistent"),
    )
