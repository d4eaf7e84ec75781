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
thousands of deterministic strategies (12,800 at epsilon = 0, d = 8), which
the walker would visit one object and one answer at a time, about twenty
times slower than the direct listing (56 ms against 2.7 ms at d = 8 on a
2-core Xeon host).  The see-saw result document is not a copy of its
dataclass: it leaves out ``pair_cap_hits``, orders its keys differently and
includes the best strategy only on request; that strategy is written by the
walker.

Every document is rendered by :func:`dumps_json`, a small recursive emitter
whose output is byte-identical to ``json.dumps(doc, indent=2,
allow_nan=False)`` for documents with string keys.  ``json.dumps`` with an
indent falls back to CPython's pure-Python encoder; the emitter joins whole
leaf lists of ints or floats at once, and renders a list of same-key records
of int lists, such as the 12,800-entry classical tie list at d = 8, from one
entry template formatted once (34 ms where the walk took 127 ms at d = 8 on a
2-core Xeon host).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from enum import Enum
from functools import lru_cache
from itertools import chain
from operator import itemgetter
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
        doc["best_strategy"] = to_dict(result.best_strategy)
    return doc


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


_encode_str = json.encoder.encode_basestring_ascii
_SCALAR_ENCODER = json.JSONEncoder(allow_nan=False)


def _records(o: list, newline: str) -> str | None:
    """JSON text of a list of same-key dicts of int lists, from one ``%d`` entry template.

    Every item must be an exact ``dict`` with the first item's keys in its
    order, every value a non-empty exact ``list`` of the first item's length
    for that key, and every element an exact ``int``; otherwise None.
    """
    keys = tuple(o[0])
    if not keys or set(map(tuple, o)) != {keys}:
        return None
    shape = []
    for column in (list(map(itemgetter(k), o)) for k in keys):
        if set(map(type, column)) != {list}:
            return None
        lengths = set(map(len, column))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape += lengths
    flat = tuple(chain.from_iterable(chain.from_iterable(map(dict.values, o))))
    if set(map(type, flat)) != {int}:
        return None
    inner, field = newline + "  ", newline + "    "
    elem = field + "  "
    fields = (
        _encode_str(k).replace("%", "%%") + ": [" + elem + ("," + elem).join(["%d"] * n) + field + "]"
        for k, n in zip(keys, shape)
    )
    entry = "{" + field + ("," + field).join(fields) + inner + "}"
    return ("[" + inner + ("," + inner).join([entry] * len(o)) + newline + "]") % flat


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
        elif kinds == {dict} and (text := _records(o, newline)) is not None:
            return text
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

    Two list rules skip the walk.  A list of exact ints, or of finite exact
    floats, is joined from their reprs.  A list of records, that is exact
    dicts with one common key order whose values are non-empty exact lists
    of exact ints, one length per key, is rendered from one ``%d`` entry
    template repeated once per record and formatted once.  Anything else,
    ``bool``, NumPy or other ``int`` subclasses, ``{}`` items, another key
    order or a ragged length among them, is walked, so its text or its
    ``TypeError`` is the one ``json.dumps`` gives.

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
