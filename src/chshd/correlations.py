"""Data model for two-party boxes: correlations and the strategies producing them.

A correlation is the conditional probability table ``p(a, b | x, y)`` of joint
answers for Alice question ``x`` and Bob question ``y``.  The full scenario
used throughout the package has 3 Alice questions, 4 Bob questions and ``d``
answers per party; 2x2-question restrictions (single CHSH blocks, coarse
grained strategies) reuse the same container with a smaller table.

Strategies come in three flavours:

* :class:`QuantumStrategy` -- a shared pure state plus one projective
  measurement per question.  Each party's measurements are one stacked
  array of shape ``(n_questions, d, dim, dim)``, indexed ``[question,
  answer]``; the constructor also accepts nested sequences of matrices.
* :class:`ChshStrategy` -- the two-question, two-outcome subclass produced
  by the coarse-graining reductions.
* :class:`DeterministicStrategy` -- fixed answer assignments ``fA``, ``fB``.

All containers are immutable after construction: arrays are copied in and
marked read-only, so values can be shared freely across threads.  Non-finite
numbers are refused with :class:`~chshd.errors.InputError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import InputError, NumericalIntegrityError, ShapeMismatchError

#: Default tolerance for generation/validation checks.
VALIDATION_TOL = 1e-9

#: Tolerated imaginary residue on Born-rule probabilities.
IMAG_TOL = 1e-9

#: Largest estimated peak, in bytes, of one ideal-strategy construction or one
#: see-saw state step.  Larger requests are refused before they allocate; 1 GiB
#: admits ``chshd ideal`` up to d = 168 and square see-saw spaces up to 57.
MEMORY_BUDGET = 1 << 30


def check_memory(nbytes: int, what: str) -> None:
    """Refuse with :class:`InputError` a step whose estimated peak exceeds :data:`MEMORY_BUDGET`."""
    if nbytes > MEMORY_BUDGET:
        raise InputError(
            f"{what} needs about {nbytes / 2**20:,.0f} MiB, "
            f"above the memory budget of {MEMORY_BUDGET / 2**20:,.0f} MiB"
        )


def finite_array(values, dtype, what: str) -> np.ndarray:
    """Read-only array copy of ``values``.

    Raises:
        ShapeMismatchError: for ragged or otherwise non-rectangular input.
        InputError: if any entry is NaN or infinite.
    """
    try:
        out = np.array(values, dtype=dtype)
    except ValueError as exc:
        raise ShapeMismatchError(f"{what} is not a rectangular numeric array: {exc}") from exc
    if not np.isfinite(out).all():
        raise InputError(f"{what} contains non-finite values")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Correlation:
    """Conditional probability table ``p(a, b | x, y)``.

    Attributes:
        d: number of answers per party.
        table: real tensor of shape ``(nx, ny, d, d)`` indexed ``[x, y, a, b]``.
        quantum_generated: set when the table was produced by the Born rule
            from a :class:`QuantumStrategy`; enables the no-signaling check in
            :func:`validate_correlation` by default.
    """

    d: int
    table: np.ndarray
    quantum_generated: bool = False

    def __post_init__(self):
        table = finite_array(self.table, float, "correlation table")
        if table.ndim != 4:
            raise ShapeMismatchError(f"correlation table must have 4 axes, got {table.ndim}")
        if table.shape[2] != self.d or table.shape[3] != self.d:
            raise ShapeMismatchError(
                f"answer axes must both have length d={self.d}, got shape {table.shape}"
            )
        object.__setattr__(self, "table", table)

    @property
    def nx(self) -> int:
        return self.table.shape[0]

    @property
    def ny(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class QuantumStrategy:
    """Pure state and projective measurements for the 3x4-question scenario.

    Attributes:
        d: number of answers per question (projectors per measurement).
        dA, dB: local Hilbert-space dimensions (default ``d`` each).
        state: unit vector of length ``dA * dB``, Alice index major.
        alice_pvms: complex array of shape ``(3, d, dA, dA)``;
            ``alice_pvms[x, a]`` is Alice's projector for answer ``a`` to
            question ``x``.
        bob_pvms: ``(4, d, dB, dB)`` likewise for Bob.
    """

    d: int
    dA: int
    dB: int
    state: np.ndarray
    alice_pvms: np.ndarray
    bob_pvms: np.ndarray

    #: Number of Alice and Bob questions.
    questions: ClassVar[tuple[int, int]] = (3, 4)

    def __post_init__(self):
        state = finite_array(self.state, complex, "state").reshape(-1)
        if state.shape != (self.dA * self.dB,):
            raise ShapeMismatchError(
                f"state must have length dA*dB={self.dA * self.dB}, got {state.shape[0]}"
            )
        object.__setattr__(self, "state", state)
        nx, ny = self.questions
        for what, nq, dim in (("alice_pvms", nx, self.dA), ("bob_pvms", ny, self.dB)):
            pvms = finite_array(getattr(self, what), complex, what)
            if pvms.shape != (nq, self.d, dim, dim):
                raise ShapeMismatchError(
                    f"{what} must have shape {(nq, self.d, dim, dim)} "
                    f"(questions, answers, {dim}x{dim} projectors), got {pvms.shape}"
                )
            object.__setattr__(self, what, pvms)


@dataclass(frozen=True)
class ChshStrategy(QuantumStrategy):
    """Two-question, two-outcome strategy, as produced by the CHSH reductions."""

    d: int = field(default=2, init=False)
    questions: ClassVar[tuple[int, int]] = (2, 2)


@dataclass(frozen=True)
class DeterministicStrategy:
    """Classical strategy: fixed answers ``fA[x]`` for Alice and ``fB[y]`` for Bob.

    Answers must be non-negative Python or NumPy integers (``bool`` and
    non-integral numbers are refused); they are stored as tuples of ``int``.
    """

    fA: tuple[int, int, int]
    fB: tuple[int, int, int, int]

    def __post_init__(self):
        for name, questions in (("fA", 3), ("fB", 4)):
            answers = tuple(getattr(self, name))
            if len(answers) != questions:
                raise ShapeMismatchError(
                    f"{name} must assign answers to {questions} questions, got {len(answers)}"
                )
            if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0 for v in answers):
                raise InputError(f"deterministic answers must be non-negative integers: {name}={answers}")
            object.__setattr__(self, name, tuple(map(int, answers)))

    @classmethod
    def _trusted(cls, fA: tuple[int, ...], fB: tuple[int, ...]) -> DeterministicStrategy:
        """Strategy from answer tuples of non-negative Python ``int``, not validated again."""
        s = object.__new__(cls)
        object.__setattr__(s, "fA", fA)
        object.__setattr__(s, "fB", fB)
        return s


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One violated invariant: what, where, and by how much."""

    kind: str
    location: tuple
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def worst(self, kind: str | None = None) -> float:
        """Largest violation magnitude, optionally restricted to one kind."""
        mags = [v.magnitude for v in self.violations if kind is None or v.kind == kind]
        return max(mags, default=0.0)


def no_signaling_residual(p: Correlation) -> float:
    """Largest deviation of either party's marginals across the other's questions."""
    alice = p.table.sum(axis=3)  # (nx, ny, d), marginal of a given x, per y
    bob = p.table.sum(axis=2)  # (nx, ny, d), marginal of b given y, per x
    res_a = np.abs(alice.max(axis=1) - alice.min(axis=1)).max() if p.ny > 1 else 0.0
    res_b = np.abs(bob.max(axis=0) - bob.min(axis=0)).max() if p.nx > 1 else 0.0
    return float(max(res_a, res_b))


def _flagged(kind: str, prefix: tuple, magnitudes: np.ndarray, tol: float) -> list[Violation]:
    """One violation per entry of ``magnitudes`` above ``tol``, located by its index."""
    return [
        Violation(kind, prefix + tuple(int(i) for i in idx), float(magnitudes[idx]))
        for idx in zip(*np.nonzero(magnitudes > tol))
    ]


def validate_correlation(
    p: Correlation,
    tol: float = VALIDATION_TOL,
    *,
    check_no_signaling: bool | None = None,
) -> ValidationReport:
    """Check range, normalization and (optionally) no-signaling of a table.

    Args:
        p: correlation to validate.
        tol: numeric tolerance for every check.
        check_no_signaling: run the marginal-consistency check.  ``None``
            (default) runs it exactly when ``p.quantum_generated`` is set.

    Returns:
        a :class:`ValidationReport` listing every violated invariant with its
        location and magnitude; an empty list means the table is valid.
    """
    if check_no_signaling is None:
        check_no_signaling = p.quantum_generated
    table = p.table
    violations = _flagged("negative_entry", (), -table, tol)
    violations += _flagged("entry_above_one", (), table - 1, tol)
    violations += _flagged("normalization", (), np.abs(table.sum(axis=(2, 3)) - 1.0), tol)
    if check_no_signaling:
        alice = table.sum(axis=3)  # [x, y, a]: spread over y for each (x, a)
        bob = table.sum(axis=2)  # [x, y, b]: spread over x for each (y, b)
        violations += _flagged("no_signaling_alice", (), alice.max(axis=1) - alice.min(axis=1), tol)
        violations += _flagged("no_signaling_bob", (), bob.max(axis=0) - bob.min(axis=0), tol)
    return ValidationReport(tuple(violations))


def validate_strategy(s: QuantumStrategy, tol: float = VALIDATION_TOL) -> ValidationReport:
    """Check that a strategy's state is normalized and its measurements are PVMs.

    Projector defects are measured in Frobenius norm: ``P^2 - P``, ``P - P†``,
    pairwise products ``P_i P_j`` and the completeness defect ``sum(P) - I``.
    """
    norm_defect = abs(float(np.linalg.norm(s.state)) - 1.0)
    violations = [Violation("state_norm", (), norm_defect)] if norm_defect > tol else []

    def frobenius(m: np.ndarray) -> np.ndarray:
        return np.linalg.norm(m, axis=(-2, -1))

    for party, pvms in (("alice", s.alice_pvms), ("bob", s.bob_pvms)):
        where = (party,)
        herm = frobenius(pvms - pvms.conj().swapaxes(-1, -2))
        violations += _flagged("projector_hermitian", where, herm, tol)
        violations += _flagged("projector_idempotent", where, frobenius(pvms @ pvms - pvms), tol)
        comp = frobenius(pvms.sum(axis=1) - np.eye(pvms.shape[-1]))
        violations += _flagged("pvm_completeness", where, comp, tol)
        products = frobenius(pvms[:, :, None] @ pvms[:, None])  # [q, a, b], kept for a < b
        violations += _flagged("pvm_orthogonality", where, np.triu(products, 1), tol)
    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# correlation generation
# ---------------------------------------------------------------------------


def correlation_from_quantum(s: QuantumStrategy, *, imag_tol: float = IMAG_TOL) -> Correlation:
    """Born-rule table ``p(a, b | x, y) = <psi| PA_x^a (x) PB_y^b |psi>``.

    Raises:
        NumericalIntegrityError: if any probability carries an imaginary
            residue above ``imag_tol``.
    """
    psi = s.state.reshape(s.dA, s.dB)
    alice, bob = s.alice_pvms, s.bob_pvms
    nx, ny, d = alice.shape[0], bob.shape[0], s.d
    # G[x, a, j, k] = <psi| (PA_x^a (x) |j><k|) |psi>, so p = sum_jk G[j, k] PB[j, k].
    gram = psi.conj().T @ (alice @ psi)
    probs = gram.reshape(nx * d, -1) @ bob.reshape(ny * d, -1).T
    worst_imag = float(np.abs(probs.imag).max())
    if not worst_imag <= imag_tol:
        raise NumericalIntegrityError(
            f"Born probabilities carry imaginary residue {worst_imag:.3e} > {imag_tol:.3e}"
        )
    table = probs.real.reshape(nx, d, ny, d).transpose(0, 2, 1, 3)
    return Correlation(d=d, table=table, quantum_generated=True)


def correlation_from_deterministic(s: DeterministicStrategy, d: int) -> Correlation:
    """0/1 table of the deterministic strategy ``s`` in the d-answer scenario."""
    if any(v >= d for v in s.fA) or any(v >= d for v in s.fB):
        raise InputError(f"deterministic answers must lie in 0..{d - 1}: fA={s.fA}, fB={s.fB}")
    table = np.zeros((3, 4, d, d))
    for x in range(3):
        for y in range(4):
            table[x, y, s.fA[x], s.fB[y]] = 1.0
    return Correlation(d=d, table=table)
