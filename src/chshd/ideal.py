"""Reference strategies that attain the functionals' target values.

All measurements act within two-dimensional answer blocks, so every projector
is assembled from the closed-form eigenvectors of
``cos(mu) sigma_Z + sin(mu) sigma_X`` rather than a general eigensolver:

* ``+1`` eigenvector ``(cos(mu/2), sin(mu/2))``,
* ``-1`` eigenvector ``(sin(mu/2), -cos(mu/2))``,

both real with a non-negative first component (the fixed phase convention).

The plain ideal strategy measures, per block, ``sigma_Z`` (x = 0, the
computational basis), ``sigma_X`` (x = 1 on plain blocks, x = 2 on primed
blocks) and ``(sigma_Z +- sigma_X)/sqrt(2)`` for Bob, on the maximally
entangled state.  For odd ``d`` the leftover answers get the rank-one
projectors ``|d-1><d-1|`` (plain family) and ``|0><0|`` (primed family).
The tilted strategy keeps Alice unchanged, replaces the state by
``sum_i c_i |ii>`` and rotates Bob's block angles to ``mu_m``.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps
from typing import Sequence

import numpy as np

from .correlations import MEMORY_BUDGET, Correlation, QuantumStrategy, check_memory, correlation_from_quantum
from .functionals import TiltedSpec, block_answer_pairs, n_blocks, uniform_spec


def pair_projectors(mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenprojectors of ``cos(mu) sigma_Z + sin(mu) sigma_X`` onto +-1."""
    plus = np.array([math.cos(mu / 2), math.sin(mu / 2)])
    minus = np.array([math.sin(mu / 2), -math.cos(mu / 2)])
    return np.outer(plus, plus).astype(complex), np.outer(minus, minus).astype(complex)


def embed_pair(d: int, pair: tuple[int, int], block: np.ndarray) -> np.ndarray:
    """Place a 2x2 matrix on the ordered basis pair ``(|i>, |j>)`` of C^d."""
    i, j = pair
    out = np.zeros((d, d), dtype=complex)
    out[i, i], out[i, j] = block[0, 0], block[0, 1]
    out[j, i], out[j, j] = block[1, 0], block[1, 1]
    return out


def _blockwise_pvm(d: int, primed: bool, mu_of_block: Sequence[float]) -> np.ndarray:
    """PVM ``(d, d, d)`` assigning each block's +1/-1 eigenprojectors to its two answers.

    For odd d the family's leftover answer gets its basis projector.
    """
    pvm = np.zeros((d, d, d), dtype=complex)
    for pair, mu in zip(block_answer_pairs(d, primed=primed), mu_of_block):
        pvm[list(pair)] = [embed_pair(d, pair, proj) for proj in pair_projectors(mu)]
    if d % 2 == 1:
        leftover = 0 if primed else d - 1
        pvm[leftover, leftover, leftover] = 1.0
    return pvm


#: Entries of each of the two per-spec caches below: room for the plain
#: targets at d = 2..16 and the seven tilted targets that the ``exact``
#: benchmark workload verifies, with ten to spare.
IDEAL_CACHE_SIZE = 32


def _per_spec_cache(build):
    """``build(spec)`` cached per spec while one entry fits its share of the memory budget.

    A spec's entry in the two caches is its ideal strategy (seven ``(d, d, d)``
    complex PVMs and the state) and its ``(3, 4, d, d)`` Born table.  A spec
    whose entry exceeds ``MEMORY_BUDGET // IDEAL_CACHE_SIZE`` (d >= 67) is
    built afresh on every call, so both full caches together stay within
    the budget.
    """
    cached = lru_cache(maxsize=IDEAL_CACHE_SIZE)(build)

    @wraps(build)
    def get(spec: TiltedSpec):
        d = spec.d
        entry_bytes = 16 * (7 * d**3 + d**2) + 8 * 12 * d**2
        return build(spec) if entry_bytes > MEMORY_BUDGET // IDEAL_CACHE_SIZE else cached(spec)

    get.cache_info, get.cache_clear = cached.cache_info, cached.cache_clear
    return get


def ideal_maxent_strategy(d: int) -> QuantumStrategy:
    """Optimal strategy for the plain functional: maximally entangled state,
    per-block CHSH measurements (Bob at angles +-pi/4).

    It is the tilted strategy at the uniform coefficients ``1/sqrt(d)``.
    """
    return ideal_tilted_strategy(uniform_spec(d))


def ideal_maxent_correlation(d: int) -> Correlation:
    return ideal_tilted_correlation(uniform_spec(d))


@_per_spec_cache
def ideal_tilted_strategy(spec: TiltedSpec) -> QuantumStrategy:
    """Strategy attaining the tilted functional's target value, cached per spec up to d = 66.

    The state is ``sum_i c_i |ii>``; Alice measures as in the plain case and
    Bob's block angles are ``mu_m = arctan(sin 2 theta_m)`` (primed blocks
    analogously).  Every block then reaches its normalized maximum regardless
    of which of its two coefficients dominates, because the tilt strengths
    are signed accordingly.
    """
    d = spec.d
    # Seven (d, d, d) complex PVMs, built and then copied into the read-only
    # strategy; the Born rule's (3, d, d, d) intermediates need less.
    check_memory(14 * 16 * d**3, f"the ideal strategy at d={d}")
    blocks = n_blocks(d)
    alice = [
        _blockwise_pvm(d, False, [0.0] * blocks),  # computational basis
        _blockwise_pvm(d, False, [math.pi / 2] * blocks),  # sigma_X per block
        _blockwise_pvm(d, True, [math.pi / 2] * blocks),
    ]
    bob = [
        _blockwise_pvm(d, False, spec.mu),
        _blockwise_pvm(d, False, [-v for v in spec.mu]),
        _blockwise_pvm(d, True, spec.mu_prime),
        _blockwise_pvm(d, True, [-v for v in spec.mu_prime]),
    ]
    state = np.diag(spec.c).reshape(-1).astype(complex)
    return QuantumStrategy(d=d, dA=d, dB=d, state=state, alice_pvms=alice, bob_pvms=bob)


@_per_spec_cache
def ideal_tilted_correlation(spec: TiltedSpec) -> Correlation:
    return correlation_from_quantum(ideal_tilted_strategy(spec))
