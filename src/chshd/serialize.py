"""JSON (de)serialization of correlations, strategies, functionals, and reports.

Conventions: complex scalars are encoded as two-element ``[real, imag]``
lists, matrices as row-major nested lists, and enums by their string values.
Objects that the package consumes (correlations, strategies, functionals)
round-trip; reports and optimizer results serialize one-way for archival.
Functionals and tilted specs are rebuilt from their generating parameters on
load, and a file whose stored values disagree with the rebuilt ones is
refused.  Writes are atomic (temp file + rename) so readers never observe a
partial artifact, and NaN or infinity is never written, since it is not JSON.

Documents of dataclasses are written by one walker, :func:`to_dict`, which
the public ``correlation_to_dict``, ``strategy_to_dict``,
``functional_to_dict``, ``tilted_spec_to_dict``, ``block_weights_to_dict``
and ``report_to_dict`` all name.  A dataclass becomes a ``kind`` tag, taken
from one type-to-kind table by ``isinstance`` (so a ``ChshStrategy`` is a
``"strategy"``; tilted specs, block weights and checks carry no tag),
followed by its fields in declaration order; an enum becomes its value, a
tuple a list, a real array nested lists and a complex array nested
``[real, imag]`` pairs.  The key order of a document is therefore its
dataclass's field order.

Two documents are written by hand.  The classical result lists up to tens of
thousands of deterministic strategies (12,800 at epsilon = 0, d = 8) as
``{"fA": [...], "fB": [...]}`` records, built from the result's ``(n, 7)``
tie array without any per-strategy object.  The see-saw result document is
not a copy of its dataclass: it leaves out ``pair_cap_hits``, orders its
keys differently and includes the best strategy only on request; that
strategy is written by the walker.

Every document is rendered by :func:`dumps_json`, which is ``json.dumps(doc,
indent=2, allow_nan=False)`` plus one splice.  The CLI puts the classical
tie array in its document in place of the record list; ``json.dumps`` writes
a mark there, and the list's text, one entry's bytes tiled once per tie with
the digits set in place, replaces it (the CLI run ``classical --d 8 --epsilon
0`` takes 11 ms against 62 ms when the list was built and walked as records,
minimum of 9 runs on a 2-core Xeon host).  Keys must be strings, which
``json.dumps`` does not check, so the dicts are walked once first.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterator

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
from .selftest import SelfTestReport

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
# documents of dataclasses
# ---------------------------------------------------------------------------

#: The ``kind`` tag of each document type, matched by ``isinstance`` (so a
#: ``ChshStrategy`` is a ``"strategy"``); other dataclasses carry no tag.
_KINDS = (
    (Correlation, "correlation"),
    (QuantumStrategy, "strategy"),
    (BellFunctional, "functional"),
    (SelfTestReport, "selftest_report"),
)


@lru_cache(maxsize=None)
def _layout(cls: type) -> tuple[dict, tuple[str, ...]]:
    """The ``kind`` head of a dataclass's document and its field names in declaration order."""
    head = next(({"kind": kind} for base, kind in _KINDS if issubclass(cls, base)), {})
    return head, tuple(f.name for f in dataclasses.fields(cls))


def _to_dict(o: Any) -> Any:
    if isinstance(o, Enum):
        return o.value
    if isinstance(o, tuple):
        return [_to_dict(v) for v in o]
    if isinstance(o, np.ndarray):
        return complex_to_lists(o) if np.iscomplexobj(o) else o.tolist()
    if dataclasses.is_dataclass(o):
        head, names = _layout(type(o))
        return head | {name: _to_dict(getattr(o, name)) for name in names}
    return o


def to_dict(obj: Any) -> dict:
    """JSON-ready document of a dataclass: its ``kind`` tag, then its fields in declaration order.

    Field values convert recursively: a dataclass becomes its document, an
    enum its value, a tuple a list, a real array nested lists and a complex
    array nested ``[real, imag]`` pairs; anything else is kept as is.
    """
    return _to_dict(obj)


correlation_to_dict = strategy_to_dict = functional_to_dict = to_dict
tilted_spec_to_dict = block_weights_to_dict = report_to_dict = to_dict


# ---------------------------------------------------------------------------
# correlations and strategies
# ---------------------------------------------------------------------------


def correlation_from_dict(doc: dict) -> Correlation:
    return Correlation(
        d=_field(doc, "d", "correlation", _integer),
        table=_require(doc, "table", "correlation"),
        quantum_generated=bool(doc.get("quantum_generated", False)),
    )


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


def tilted_spec_from_dict(doc: dict) -> TiltedSpec:
    """Rebuild the spec from its coefficients ``c``; every stored field must agree."""
    c = _field(doc, "c", "tilted spec", lambda values: tuple(float(v) for v in values))
    spec = TiltedSpec.from_coefficients(c)
    for f in dataclasses.fields(spec):
        stored = _require(doc, f.name, "tilted spec")
        _check_rebuilt(f"tilted spec field {f.name!r}", stored, getattr(spec, f.name))
    return spec


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


def classical_result_to_dict(result: ClassicalMaxResult, *, ties_array: bool = False) -> dict:
    """The result's document; ``argmax`` lists ``{"fA": [...], "fB": [...]}`` records.

    With ``ties_array`` the ``argmax`` entry is the read-only tie array itself,
    which :func:`dumps_json` renders as the same records and ``json.dumps``
    refuses.
    """
    return {
        "kind": "classical_max",
        "value": result.value,
        "argmax": result.ties if ties_array else _tie_records(result.ties),
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
        doc["best_strategy"] = to_dict(result.best_strategy)
    return doc


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def _tie_records(ties: np.ndarray) -> list[dict]:
    return [{"fA": a, "fB": b} for a, b in zip(ties[:, :3].tolist(), ties[:, 3:].tolist())]


#: Rows per piece of a rendered tie array, so that its text is never held twice.
_TIE_BLOCK = 1024

#: The string a tie array stands as in ``json.dumps``'s text until its own text is spliced in.
_TIE_MARK = "\x00classical tie array\x00"


def _ties(ties: np.ndarray, newline: str) -> Iterator[str]:
    """JSON text of a non-empty tie array's records: one entry's bytes tiled, the digits set per row.

    The entry is ``json.dumps``'s text of an all-zero row, so every answer
    must be a single digit, 0..9.
    """
    # The text of one row is "[" + entry + newline + "]".  Each row becomes
    # "," + entry, and the first row's "," is then overwritten by the "[".
    one = json.dumps(_tie_records(np.zeros((1, 7), int)), indent=2).replace("\n", newline).encode()
    unit = np.frombuffer(b"," + one[1 : -len(newline) - 1], np.uint8)
    for start in range(0, len(ties), _TIE_BLOCK):
        block = ties[start : start + _TIE_BLOCK]
        text = np.tile(unit, (len(block), 1))
        text[:, unit == ord("0")] += block.astype(np.uint8)
        text[0, 0] = ord(",") if start else ord("[")
        yield str(text, "ascii")
    yield newline + "]"


def _refuse_keys_that_are_not_strings(o: Any) -> None:
    """Raise ``TypeError`` for a dict key that is not a string, at any depth of dicts, lists and tuples."""
    if isinstance(o, dict):
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        o = o.values()
    elif not isinstance(o, (list, tuple)):
        return
    for v in o:
        if isinstance(v, (dict, list, tuple)):
            _refuse_keys_that_are_not_strings(v)


def dumps_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False)``, with a classical tie array rendered as its records.

    A two-dimensional NumPy integer array with seven columns is a classical
    tie array, written as the list of ``{"fA": row[:3], "fB": row[3:]}``
    records.  When every answer is 0..9, ``json.dumps`` writes a mark in
    its place, and the records' text, one entry's bytes repeated once per
    row with the digits set in place, is spliced in at the indentation of
    the mark's line, in blocks of 1,024 rows, so the list is never held as
    Python objects.  Otherwise (answers from 10 on occur only above the
    default enumeration cap, or when a second tie array or a document string
    equal to the mark leaves the splice ambiguous) the records are handed to
    ``json.dumps``.  Any other value JSON has no form for gets
    ``json.dumps``'s own ``TypeError``.

    Keys must be strings: ``json.dumps`` would silently write an int key as
    a string, so the dicts are walked once to refuse that first.

    Raises:
        NumericalIntegrityError: if ``doc`` holds NaN or infinity, which JSON
            cannot represent.
        TypeError: for a key that is not a string, or a value JSON has no
            form for.
    """
    _refuse_keys_that_are_not_strings(doc)
    spliced: list[np.ndarray] = []

    def default(o: Any) -> Any:
        if not (isinstance(o, np.ndarray) and o.dtype.kind in "iu" and o.ndim == 2 and o.shape[1] == 7):
            return json.JSONEncoder().default(o)  # raises json.dumps's own TypeError
        if spliced or not (len(o) and 0 <= o.min() and o.max() <= 9):
            return _tie_records(o)
        spliced.append(o)
        return _TIE_MARK

    try:
        text = json.dumps(doc, indent=2, allow_nan=False, default=default)
    except ValueError as exc:
        raise NumericalIntegrityError(f"refusing to emit a non-finite number: {exc}") from exc
    if not spliced:
        return text
    mark = json.dumps(_TIE_MARK)
    if text.count(mark) != 1:
        # A document string equals the mark, so the array is written as records.
        return json.dumps(doc, indent=2, default=lambda o: _tie_records(o) if o is spliced[0] else default(o))
    head, _, tail = text.partition(mark)
    line = head[head.rfind("\n") + 1 :]
    newline = "\n" + " " * (len(line) - len(line.lstrip(" ")))
    return "".join([head, *_ties(spliced[0], newline), tail])


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
