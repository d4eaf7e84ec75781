"""Independent re-implementations used as test oracles.

These deliberately take different computational paths from the package:
explicit Kronecker products for the Born rule, closed-form trigonometry for
the ideal qubit CHSH table, and direct scans for small classical problems.
Expected values frozen in the tests were computed with these.
:func:`reference_pair_ascent` is the exception: it keeps the see-saw pair
step as first written, so that a faster rewrite can be held to the same bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def born_table(state, alice_pvms, bob_pvms) -> np.ndarray:
    """Born-rule probability table via explicit Kronecker products."""
    psi = np.asarray(state, dtype=complex).reshape(-1)
    nx, ny = len(alice_pvms), len(bob_pvms)
    d = len(alice_pvms[0])
    table = np.empty((nx, ny, d, d))
    for x in range(nx):
        for y in range(ny):
            for a in range(d):
                for b in range(d):
                    op = np.kron(alice_pvms[x][a], bob_pvms[y][b])
                    table[x, y, a, b] = float((psi.conj() @ op @ psi).real)
    return table


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_pvm(dim: int, n_answers: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random rank-partitioned PVM: rotated basis projectors, last answer fat."""
    u = random_unitary(dim, rng)
    sizes = [1] * (n_answers - 1) + [dim - n_answers + 1]
    pvm, start = [], 0
    for size in sizes:
        cols = u[:, start : start + size]
        pvm.append(cols @ cols.conj().T)
        start += size
    return pvm


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def qubit_chsh_table() -> np.ndarray:
    """Closed-form ideal qubit CHSH correlation: p = (1 + (-1)^(a+b+xy)/sqrt 2)/4."""
    table = np.empty((2, 2, 2, 2))
    for x, y, a, b in itertools.product((0, 1), repeat=4):
        sign = -1.0 if (a + b + x * y) % 2 else 1.0
        table[x, y, a, b] = (1.0 + sign / math.sqrt(2.0)) / 4.0
    return table


def brute_force_classical(coeff: np.ndarray, d: int):
    """Direct scan of all d^7 deterministic strategies.

    Returns ``(best, argmax)`` where ``argmax`` lists every ``(fA, fB)`` whose
    value is within 1e-12 of the maximum, in lexicographic order.
    """
    best = -math.inf
    values = {}
    for fa in itertools.product(range(d), repeat=3):
        for fb in itertools.product(range(d), repeat=4):
            v = sum(coeff[x, y, fa[x], fb[y]] for x in range(3) for y in range(4))
            values[(fa, fb)] = v
            if v > best:
                best = v
    argmax = [key for key, v in sorted(values.items()) if v >= best - 1e-12]
    return best, argmax


def reference_pair_ascent(frame, labels, gains, tol, passes=30):
    """The see-saw measurement step with its per-pair NumPy bookkeeping, used only as a referee.

    A copy of ``chshd.seesaw._pair_ascent`` as it stood before its bookkeeping
    moved to Python scalars, with the pass cap ``_PAIR_PASSES`` as a
    parameter.  Updates ``frame`` and ``labels`` in place and returns the total
    gain and whether the pass cap was hit.
    """
    d = len(gains)
    total = 0.0
    for _ in range(passes):
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
