"""JSON (de)serialization of correlations, strategies, functionals, and reports.

Conventions: complex scalars are encoded as two-element ``[real, imag]``
lists, matrices as row-major nested lists, and enums by their string values.
Objects that the package consumes (correlations, strategies, functionals)
round-trip; reports and optimizer results serialize one-way for archival.
Functionals and tilted specs are rebuilt from their generating parameters on
load, and a file whose stored values disagree with the rebuilt ones is
refused.  Writes are atomic (temp file + rename) so readers never observe a
partial artifact, and NaN or infinity is never written, since it is not JSON.

Every document is rendered by :func:`dumps_json`, a small recursive emitter
whose output is byte-identical to ``json.dumps(doc, indent=2,
allow_nan=False)`` for documents with string keys.  ``json.dumps`` with an
indent falls back to CPython's pure-Python encoder; the emitter joins whole
leaf lists of ints or floats at once, which halves the time on large
documents such as the 12,800-entry classical tie list at d = 8.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .classical import ClassicalMaxResult
from .correlations import Correlation, QuantumStrategy
from .errors import InputError, NumericalIntegrityError
from .functionals import (
    BellFunctional,
    CrossDiagonalMode,
    TiltedSpec,
    Variant,
    build_maxent,
    build_tilted,
)
from .seesaw import SeesawResult
from .selftest import BlockWeights, SelfTestReport

#: Largest tolerated difference between a stored value and its rebuilt counterpart.
REBUILD_TOL = 1e-12


# ---------------------------------------------------------------------------
# scalar and array helpers
# ---------------------------------------------------------------------------


def complex_to_lists(a: np.ndarray) -> list:
    """Row-major nested lists of ``[real, imag]`` pairs, for an array of any rank."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def complex_from_lists(pairs: Any, rank: int, what: str) -> np.ndarray:
    """Inverse of :func:`complex_to_lists` for an array of the given rank."""
    try:
        parts = np.array(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed complex {what}: expected nested [re, im] pairs") from exc
    if parts.ndim != rank + 1 or parts.shape[-1] != 2:
        raise InputError(f"malformed complex {what}: expected rank-{rank} nested [re, im] pairs")
    return parts.view(complex)[..., 0]


complex_matrix_to_lists = complex_to_lists


def complex_matrix_from_lists(rows: Any, what: str = "matrix") -> np.ndarray:
    return complex_from_lists(rows, 2, what)


def _require(doc: dict, key: str, what: str) -> Any:
    if key not in doc:
        raise InputError(f"malformed {what}: missing key {key!r}")
    return doc[key]


def _integer(value: Any) -> int:
    number = int(value)
    if number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _field(doc: dict, key: str, what: str, convert: Callable[[Any], Any]) -> Any:
    """``convert(doc[key])``; a missing key or a value ``convert`` refuses raises InputError."""
    value = _require(doc, key, what)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed {what}: bad {key!r} value {value!r}") from exc


# ---------------------------------------------------------------------------
# correlations and strategies
# ---------------------------------------------------------------------------


def correlation_to_dict(p: Correlation) -> dict:
    return {
        "kind": "correlation",
        "d": p.d,
        "table": p.table.tolist(),
        "quantum_generated": p.quantum_generated,
    }


def correlation_from_dict(doc: dict) -> Correlation:
    return Correlation(
        d=_field(doc, "d", "correlation", _integer),
        table=_require(doc, "table", "correlation"),
        quantum_generated=bool(doc.get("quantum_generated", False)),
    )


def strategy_to_dict(s: QuantumStrategy) -> dict:
    return {
        "kind": "strategy",
        "d": s.d,
        "dA": s.dA,
        "dB": s.dB,
        "state": complex_to_lists(s.state),
        "alice_pvms": complex_to_lists(s.alice_pvms),
        "bob_pvms": complex_to_lists(s.bob_pvms),
    }


def strategy_from_dict(doc: dict) -> QuantumStrategy:
    return QuantumStrategy(
        d=_field(doc, "d", "strategy", _integer),
        dA=_field(doc, "dA", "strategy", _integer),
        dB=_field(doc, "dB", "strategy", _integer),
        state=complex_from_lists(_require(doc, "state", "strategy"), 1, "state"),
        alice_pvms=complex_from_lists(_require(doc, "alice_pvms", "strategy"), 4, "projectors"),
        bob_pvms=complex_from_lists(_require(doc, "bob_pvms", "strategy"), 4, "projectors"),
    )


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


def _check_rebuilt(what: str, stored: Any, rebuilt: np.ndarray) -> None:
    """Refuse a stored value that differs from its rebuilt counterpart by more than REBUILD_TOL."""
    try:
        stored = np.array(stored, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc
    rebuilt = np.asarray(rebuilt, dtype=float)
    if stored.shape != rebuilt.shape:
        raise InputError(f"stored {what} has shape {stored.shape}, rebuilt {rebuilt.shape}")
    deviation = float(np.max(np.abs(stored - rebuilt), initial=0.0))
    if not deviation <= REBUILD_TOL:
        raise InputError(
            f"stored {what} differs from the value rebuilt from its parameters by "
            f"{deviation:.3e} > {REBUILD_TOL:.0e}; the file was edited or is corrupt"
        )


def tilted_spec_to_dict(spec: TiltedSpec) -> dict:
    return {f.name: list(getattr(spec, f.name)) for f in dataclasses.fields(spec)}


def tilted_spec_from_dict(doc: dict) -> TiltedSpec:
    """Rebuild the spec from its coefficients ``c``; every stored field must agree."""
    c = _field(doc, "c", "tilted spec", lambda values: tuple(float(v) for v in values))
    spec = TiltedSpec.from_coefficients(c)
    for f in dataclasses.fields(spec):
        stored = _require(doc, f.name, "tilted spec")
        _check_rebuilt(f"tilted spec field {f.name!r}", stored, getattr(spec, f.name))
    return spec


def functional_to_dict(f: BellFunctional) -> dict:
    return {
        "kind": "functional",
        "d": f.d,
        "epsilon": f.epsilon,
        "variant": f.variant.value,
        "mode": f.mode.value,
        "coeff": f.coeff.tolist(),
        "tilted_spec": None if f.tilted_spec is None else tilted_spec_to_dict(f.tilted_spec),
    }


def functional_from_dict(doc: dict) -> BellFunctional:
    """Rebuild the functional from ``d`` or the tilted spec, ``epsilon`` and ``mode``.

    The stored ``coeff`` must agree with the rebuilt tensor; ``epsilon = 0``
    is accepted, since a file can only hold it if it was built on purpose.
    """
    d = _field(doc, "d", "functional", _integer)
    epsilon = _field(doc, "epsilon", "functional", float)
    variant = _field(doc, "variant", "functional", Variant)
    mode = _field(doc, "mode", "functional", CrossDiagonalMode)
    coeff = _require(doc, "coeff", "functional")
    if variant is Variant.TILTED:
        spec = tilted_spec_from_dict(doc.get("tilted_spec") or {})
        f = build_tilted(spec.c, epsilon, mode, allow_zero_epsilon=True)
        if f.d != d:
            raise InputError(f"malformed functional: d={d} but the tilted spec has d={f.d}")
    elif doc.get("tilted_spec") is not None:
        raise InputError("malformed functional: a maxent functional carries no tilted_spec")
    else:
        f = build_maxent(d, epsilon, mode, allow_zero_epsilon=True)
    _check_rebuilt("coeff", coeff, f.coeff)
    return f


# ---------------------------------------------------------------------------
# results and reports (one-way)
# ---------------------------------------------------------------------------


def block_weights_to_dict(w: BlockWeights) -> dict:
    return {
        "w": list(w.w),
        "w_prime": list(w.w_prime),
        "leftover": list(w.leftover),
        "consistency_residual": w.consistency_residual,
    }


def report_to_dict(report: SelfTestReport) -> dict:
    return {
        "kind": "selftest_report",
        "d": report.d,
        "variant": report.variant.value,
        "bell_value": report.bell_value,
        "bound": report.bound,
        "cross_mass": report.cross_mass,
        "weights": block_weights_to_dict(report.weights),
        "block_deviation": report.block_deviation,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "measured": c.measured,
                "tolerance": c.tolerance,
            }
            for c in report.checks
        ],
        "passed": report.passed,
        "verdict": report.verdict,
    }


def classical_result_to_dict(result: ClassicalMaxResult) -> dict:
    return {
        "kind": "classical_max",
        "value": result.value,
        "argmax": [{"fA": list(s.fA), "fB": list(s.fB)} for s in result.argmax],
        "strategies_scanned": result.strategies_scanned,
        "reference_bound": result.reference_bound,
        "note": result.note,
    }


def seesaw_result_to_dict(result: SeesawResult, include_strategy: bool = True) -> dict:
    doc = {
        "kind": "seesaw_result",
        "best_value": result.best_value,
        "best_restart": result.best_restart,
        "converged": list(result.converged),
        "trajectory": [list(t) for t in result.trajectory],
    }
    if include_strategy:
        doc["best_strategy"] = strategy_to_dict(result.best_strategy)
    return doc


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


_encode_str = json.encoder.encode_basestring_ascii
_SCALAR_ENCODER = json.JSONEncoder(allow_nan=False)


def _emit(o: Any, newline: str) -> str:
    """JSON text of ``o`` whose opening line is indented by ``newline`` (``"\\n"`` + spaces)."""
    if isinstance(o, str):
        return _encode_str(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    if isinstance(o, (list, tuple)):
        inner = newline + "  "
        # A list of exact ints, or of finite exact floats, is joined by the
        # repr json.encoder itself applies to each item; anything else recurses.
        kinds = set(map(type, o))
        if kinds == {int} or (kinds == {float} and all(map(math.isfinite, o))):
            items = map(type(o[0]).__repr__, o)
        else:
            items = (_emit(v, inner) for v in o)
        return "[" + inner + ("," + inner).join(items) + newline + "]" if o else "[]"
    if isinstance(o, dict):
        inner = newline + "  "
        items = (_encode_str(k) + ": " + _emit(v, inner) for k, v in o.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}" if o else "{}"
    return _SCALAR_ENCODER.encode(o)


def dumps_json(doc: dict) -> str:
    """Indented JSON text of ``doc``, byte-identical to ``json.dumps(doc, indent=2, allow_nan=False)``.

    Dicts, lists and tuples are walked with ``json.encoder``'s ``isinstance``
    rules, strings go through ``encode_basestring_ascii`` and every other
    scalar but ``float`` through one C-backed ``JSONEncoder``.  Keys must be
    strings.

    Raises:
        NumericalIntegrityError: if ``doc`` holds NaN or infinity, which JSON
            cannot represent.
        TypeError: for a key that is not a string, or a value JSON has no
            form for.
    """
    try:
        return _emit(doc, "\n")
    except ValueError as exc:
        raise NumericalIntegrityError(f"refusing to emit a non-finite number: {exc}") from exc


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` (newline-terminated) to ``path`` via a same-directory temp file and rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json_atomic(path: str | Path, doc: dict) -> None:
    """Serialize ``doc`` to ``path`` atomically; NaN or infinity raises before any file exists."""
    write_text_atomic(path, dumps_json(doc))


def read_json(path: str | Path) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"expected a JSON object in {path}, got {type(doc).__name__}")
    return doc
