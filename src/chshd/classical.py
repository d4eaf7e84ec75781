"""Exact classical maximum of a functional by Bob's best response.

Deterministic strategies assign one answer per question, so there are
``d^3 * d^4`` of them; the maximum over those equals the maximum over all
local (shared-randomness) strategies by convexity.  Once Alice's answers
``fA`` are fixed the value ``sum_y rows[y, fB[y]]``, with
``rows[y, b] = sum_x coeff[x, y, fA[x], b]``, splits into one term per Bob
question, so Bob's best response is ``sum_y max_b rows[y, b]``.  One
vectorized pass over the ``d^3`` Alice assignments therefore covers all
``d^7`` strategies.  The terms are added in a fixed order, and rounded
addition is monotone, so the best response's float sum is the largest float
sum of any ``fB``: the value is the one an exhaustive scan finds.

The ties are listed from the Alice rows within the tolerance by extending
Bob's answers one question at a time, in one array pass per question.  A
prefix ``(fA, fB[0..y])`` survives if its sum, topped up with the later
questions' maxima, still reaches the floor ``value - tol``; the terms are
added in the order the full sum uses.  Rounded addition is monotone, so a
tie's prefixes all reach the floor and no tie is dropped, and at the last
question the test compares the full sum itself.  Survivors are kept in
row-major order, which is the lexicographic ``(fA, fB)`` order, and the work
per question is proportional to the survivors times ``d``.  The ties are kept
as one read-only ``(n, 7)`` integer array, Alice's three answers and then
Bob's four per row; :class:`DeterministicStrategy` objects are built from it
only when ``argmax`` is first read.  The scan's row tensor and its three
gathers, ``4 * 32 d^4`` bytes together, are checked against the memory
budget before anything is allocated, and so is the tie listing, whose size
the tolerance sets (any large one ties every strategy), before it starts.
Each tied row has at most ``d^4`` ties; when that many could exceed the
budget, the product over Bob's questions of the answers that can still
reach the floor bounds them instead.

The plain functional's classical maximum is ``2 (1 + [d > 2])`` for even
``d``.  For odd ``d`` the maximum routinely lies strictly above it:
the bonus terms on the leftover diagonal are themselves classically
achievable (for d = 3, answering ``2`` everywhere already collects
``2 + 2 sqrt(2)``), so the even-d bound does not carry over.  Results whose
value exceeds the even-d reference carry an explanatory note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from . import correlations
from .correlations import DeterministicStrategy, check_memory
from .errors import EnumerationCapError, InputError
from .functionals import BellFunctional, classical_reference_bound

#: Strategies within this distance of the maximum are reported as ties.
TIE_TOL = 1e-12

#: Largest d scanned without an explicit override (d^7 strategies).
DEFAULT_CAP = 10

#: Peak bytes of the tie listing per (prefix, answer) pair of one prefix step
#: (its sums, reach, gathered row terms and mask), and per listed tie (the
#: surviving indices and sums, the answer columns and the ``(n, 7)`` array
#: they are stacked into), with some room for NumPy's temporaries.
_STEP_BYTES = 48
_TIE_BYTES = 128


def classical_value_of(f: BellFunctional, s: DeterministicStrategy) -> float:
    """Value of a single deterministic strategy: ``sum_{x,y} coeff[x, y, fA[x], fB[y]]``."""
    d = f.d
    if any(not 0 <= v < d for v in s.fA) or any(not 0 <= v < d for v in s.fB):
        raise InputError(f"answers must lie in 0..{d - 1}: fA={s.fA}, fB={s.fB}")
    return float(sum(f.coeff[x, y, s.fA[x], s.fB[y]] for x in range(3) for y in range(4)))


@dataclass(frozen=True, eq=False)
class ClassicalMaxResult:
    """Outcome of the best-response pass.

    ``strategies_scanned`` is ``d^7``, the number of deterministic strategies
    the maximum covers: ``d^3`` Alice assignments, each met by Bob's best
    response out of ``d^4``.  ``ties`` is a read-only ``(n, 7)`` integer
    array with one row ``fA + fB`` for every strategy within the tie
    tolerance of the maximum, in lexicographic ``(fA, fB)`` order.
    ``argmax`` lists the same strategies as a tuple of
    :class:`DeterministicStrategy`, built from ``ties`` on first read.
    ``note`` is set when the value exceeds the even-d classical reference
    bound (which happens for odd d, where the leftover-diagonal bonus terms
    are classically achievable).  Results compare by identity.
    """

    value: float
    ties: np.ndarray
    strategies_scanned: int
    reference_bound: float
    note: str | None = None

    @cached_property
    def argmax(self) -> tuple[DeterministicStrategy, ...]:
        fa, fb = zip(*self.ties[:, :3].T.tolist()), zip(*self.ties[:, 3:].T.tolist())
        return tuple(map(DeterministicStrategy._trusted, fa, fb))


def _total(t0, t1, t2, t3):
    """Sum over Bob's questions, always added in the order 0, 1, 2, 3."""
    return t0 + t1 + t2 + t3


def classical_max(
    f: BellFunctional, *, cap: int = DEFAULT_CAP, tie_tol: float = TIE_TOL
) -> ClassicalMaxResult:
    """Maximize ``f`` over all deterministic strategies.

    Raises:
        EnumerationCapError: when ``f.d > cap`` (default cap 10, i.e. at most
            10^7 strategies).
        InputError: when ``tie_tol`` is negative, infinite or NaN, or when
            the scan's arrays, or the tie listing's bound, would exceed the
            memory budget.
    """
    d = f.d
    if d > cap:
        raise EnumerationCapError(d, cap)
    if not 0 <= tie_tol < math.inf:
        raise InputError(f"tie_tol must be finite and non-negative, got {tie_tol!r}")
    check_memory(4 * 32 * d**4, f"the classical scan at d={d}")
    fa_rows = np.array(list(product(range(d), repeat=3)), dtype=np.intp)
    coeff = f.coeff
    # rows[y, i, b] = sum_x coeff[x, y, fA_i[x], b], shape (4, d^3, d)
    rows = coeff[0][:, fa_rows[:, 0]] + coeff[1][:, fa_rows[:, 1]] + coeff[2][:, fa_rows[:, 2]]
    top = rows.max(axis=2)
    row_best = _total(*top)
    best = float(row_best.max())

    floor = best - tie_tol
    tied = np.flatnonzero(row_best >= floor)
    rows, top = rows[:, tied], top[:, tied]

    def listing_bytes(widths):
        return _STEP_BYTES * d * max(len(tied), *widths[:3]) + _TIE_BYTES * int(widths[3])

    # widths[y] bounds the prefixes of length y + 1, and widths[3] the ties:
    # at first by every answer, then, if that could exceed the budget, by
    # counts[y, i], Bob's answers to question y that reach the floor in tied
    # row i with his other questions at their maxima (added in the full
    # sum's order), since every tie is among their products.
    widths = len(tied) * d ** np.arange(1, 5)
    if listing_bytes(widths) > correlations.MEMORY_BUDGET:
        counts = [
            (_total(*(rows[z] if z == y else top[z, :, None] for z in range(4))) >= floor).sum(axis=1)
            for y in range(4)
        ]
        widths = np.cumprod(counts, axis=0).sum(axis=1)
    check_memory(listing_bytes(widths), f"listing up to {widths[3]:,} classical ties at d={d}")
    # Prefix k of Bob's answers extends tied row owner[k]; partial[k] is its
    # left-to-right sum and answers holds one column per question so far.
    owner, partial, answers = np.arange(len(tied)), None, []
    for y in range(4):
        sums = rows[y, owner] if y == 0 else partial[:, None] + rows[y, owner]
        reach = sums
        for t in top[y + 1 :]:
            reach = reach + t[owner, None]
        k, b = np.nonzero(reach >= floor)
        owner, partial, answers = owner[k], sums[k, b], [a[k] for a in answers] + [b]
    ties = np.column_stack([fa_rows[tied[owner]], *answers])
    ties.flags.writeable = False

    reference = classical_reference_bound(d)
    note = None
    if best > reference + tie_tol:
        note = (
            f"maximum {best:.12g} exceeds the even-d classical reference bound "
            f"{reference:g}; for odd d the leftover-diagonal bonus terms are "
            "classically achievable, so the even-d bound does not apply"
        )
    return ClassicalMaxResult(
        value=best,
        ties=ties,
        strategies_scanned=d**7,
        reference_bound=reference,
        note=note,
    )
