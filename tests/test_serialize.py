"""JSON round-trips for correlations, strategies, functionals, and results."""

import dataclasses
import json
import math
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chshd import (
    ChshdError,
    ChshStrategy,
    Correlation,
    CrossDiagonalMode,
    InputError,
    NumericalIntegrityError,
    QuantumStrategy,
    SeesawConfig,
    build_maxent,
    build_tilted,
    chsh_reduction_even,
    classical_max,
    correlation_from_quantum,
    evaluate,
    extract_block_weights,
    ideal_maxent_correlation,
    ideal_maxent_strategy,
    seesaw,
    verify_selftest,
)
from chshd.serialize import (
    classical_result_to_dict,
    block_weights_to_dict,
    complex_matrix_from_lists,
    complex_matrix_to_lists,
    correlation_from_dict,
    correlation_to_dict,
    dumps_json,
    functional_from_dict,
    functional_to_dict,
    read_json,
    report_to_dict,
    seesaw_result_to_dict,
    strategy_from_dict,
    strategy_to_dict,
    tilted_spec_from_dict,
    tilted_spec_to_dict,
    to_dict,
    write_json_atomic,
)


def test_complex_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lists = complex_matrix_to_lists(m)
    assert json.dumps(lists)  # JSON-safe
    assert np.array_equal(complex_matrix_from_lists(lists), m)


def test_complex_matrix_rejects_malformed():
    with pytest.raises(InputError):
        complex_matrix_from_lists([[1.0, 2.0]])  # entries must be [re, im]


def test_correlation_round_trip():
    p = ideal_maxent_correlation(3)
    doc = correlation_to_dict(p)
    assert doc["kind"] == "correlation"
    q = correlation_from_dict(json.loads(json.dumps(doc)))
    assert q.d == 3 and q.quantum_generated
    assert np.array_equal(q.table, p.table)


def test_strategy_round_trip_preserves_born_statistics():
    s = ideal_maxent_strategy(3)
    doc = json.loads(json.dumps(strategy_to_dict(s)))
    t = strategy_from_dict(doc)
    assert (t.d, t.dA, t.dB) == (s.d, s.dA, s.dB)
    p, q = correlation_from_quantum(s), correlation_from_quantum(t)
    assert np.max(np.abs(p.table - q.table)) < 1e-15


def test_functional_round_trip_maxent():
    f = build_maxent(5, 0.3)
    g = functional_from_dict(json.loads(json.dumps(functional_to_dict(f))))
    assert (g.d, g.epsilon, g.variant, g.mode) == (f.d, f.epsilon, f.variant, f.mode)
    assert np.array_equal(g.coeff, f.coeff)


def test_functional_round_trip_tilted():
    f = build_tilted((0.6, 0.5, 0.45, math.sqrt(0.1875)), 0.2)
    g = functional_from_dict(json.loads(json.dumps(functional_to_dict(f))))
    assert np.array_equal(g.coeff, f.coeff)
    assert g.tilted_spec is not None
    assert g.tilted_spec.c == pytest.approx(f.tilted_spec.c, abs=0)
    assert g.tilted_spec.alpha == pytest.approx(f.tilted_spec.alpha, abs=0)
    p = ideal_maxent_correlation(4)
    assert evaluate(g, p) == evaluate(f, p)


def test_tilted_spec_round_trip():
    from chshd import TiltedSpec

    spec = TiltedSpec.from_coefficients((0.8, 0.6))
    again = tilted_spec_from_dict(json.loads(json.dumps(tilted_spec_to_dict(spec))))
    assert again == spec


def test_functional_from_dict_rejects_missing_keys():
    doc = functional_to_dict(build_maxent(2, 0.1))
    del doc["coeff"]
    with pytest.raises(InputError):
        functional_from_dict(doc)


@pytest.mark.parametrize("key,value", [("variant", "bogus"), ("mode", "sideways"), ("d", "three"), ("d", 3.5), ("epsilon", "x")])
def test_functional_from_dict_rejects_bad_fields(key, value):
    doc = functional_to_dict(build_maxent(3, 0.1))
    doc[key] = value
    with pytest.raises(InputError, match=key):
        functional_from_dict(doc)


def test_strategy_and_correlation_from_dict_reject_bad_ints():
    doc = strategy_to_dict(ideal_maxent_strategy(2))
    doc["dA"] = None
    with pytest.raises(InputError, match="dA"):
        strategy_from_dict(doc)
    doc = correlation_to_dict(ideal_maxent_correlation(2))
    doc["d"] = [2]
    with pytest.raises(InputError, match="'d'"):
        correlation_from_dict(doc)


def test_tilted_spec_from_dict_rejects_bad_coefficients():
    from chshd import TiltedSpec

    doc = tilted_spec_to_dict(TiltedSpec.from_coefficients((0.8, 0.6)))
    doc["c"] = ["a", "b"]
    with pytest.raises(InputError, match="'c'"):
        tilted_spec_from_dict(doc)


def test_correlation_from_dict_rejects_bad_table():
    doc = correlation_to_dict(ideal_maxent_correlation(2))
    doc["table"] = [[0.5, 0.5]]
    with pytest.raises(ChshdError):
        correlation_from_dict(doc)


def test_report_and_result_dicts_are_json_safe():
    f = build_maxent(3, 0.1)
    p = ideal_maxent_correlation(3)
    report_doc = report_to_dict(verify_selftest(p, f))
    classical_doc = classical_result_to_dict(classical_max(f))
    seesaw_doc = seesaw_result_to_dict(seesaw(build_maxent(2, 0.1), SeesawConfig(restarts=2)))
    weights_doc = block_weights_to_dict(extract_block_weights(p))
    for doc in (report_doc, classical_doc, seesaw_doc, weights_doc):
        parsed = json.loads(json.dumps(doc))
        assert isinstance(parsed, dict)
    assert report_doc["verdict"] == "self-tested"
    assert classical_doc["argmax"][0]["fA"] == [0, 0, 0]
    assert "best_strategy" in seesaw_doc
    assert "best_strategy" not in seesaw_result_to_dict(
        seesaw(build_maxent(2, 0.1), SeesawConfig(restarts=1)), include_strategy=False
    )


def test_write_json_atomic_creates_and_overwrites(tmp_path):
    target = tmp_path / "artifact.json"
    write_json_atomic(target, {"a": 1})
    assert read_json(target) == {"a": 1}
    write_json_atomic(target, {"a": 2})
    assert read_json(target) == {"a": 2}
    assert list(tmp_path.iterdir()) == [target]  # no stray temp files


def test_read_json_rejects_non_object(tmp_path):
    target = tmp_path / "bad.json"
    target.write_text("[1, 2, 3]")
    with pytest.raises(InputError):
        read_json(target)


def test_functional_from_dict_rejects_edited_tilted_spec():
    doc = json.loads(json.dumps(functional_to_dict(build_tilted((0.8, 0.6), 0.1))))
    doc["tilted_spec"]["alpha"] = [0.0]
    with pytest.raises(InputError):
        functional_from_dict(doc)
    with pytest.raises(InputError):
        tilted_spec_from_dict(doc["tilted_spec"])


def test_functional_from_dict_rejects_edited_coefficients():
    for f in (build_maxent(3, 0.1), build_tilted((0.6, 0.5, 0.45, math.sqrt(0.1875)), 0.2)):
        doc = json.loads(json.dumps(functional_to_dict(f)))
        doc["coeff"][0][0][0][0] = 99
        with pytest.raises(InputError):
            functional_from_dict(doc)


def test_functional_from_dict_accepts_zero_epsilon():
    f = build_maxent(4, 0.0, allow_zero_epsilon=True)
    g = functional_from_dict(json.loads(json.dumps(functional_to_dict(f))))
    assert g.epsilon == 0.0 and np.array_equal(g.coeff, f.coeff)


def test_write_json_atomic_refuses_nan(tmp_path):
    target = tmp_path / "artifact.json"
    with pytest.raises(NumericalIntegrityError):
        write_json_atomic(target, {"x": float("nan")})
    assert list(tmp_path.iterdir()) == []  # neither the target nor a temp file


# ---------------------------------------------------------------------------
# the emitter: byte-identical to json.dumps(indent=2, allow_nan=False)
# ---------------------------------------------------------------------------

TEXT = st.text(st.sampled_from('"\\,:[]{} \n\t\x00aZé∑中😀') | st.characters(), max_size=10)
BIG = st.integers(min_value=2**63, max_value=2**200)
INTS = st.integers() | BIG | BIG.map(lambda n: -n)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT | FLOATS.map(np.float64)
LEAF_LISTS = st.lists(INTS, max_size=6) | st.lists(FLOATS, max_size=6) | st.lists(SCALARS, max_size=6)


def _nested(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
    )


DOCS = st.dictionaries(TEXT, st.recursive(SCALARS | LEAF_LISTS, _nested, max_leaves=12), max_size=3)


def _buried(bad):
    """Documents that hold one of ``bad`` at some depth, among finite siblings."""

    def around(inner):
        return (
            st.builds(
                lambda pre, x, post: [*pre, x, *post],
                st.lists(FLOATS, max_size=3), inner, st.lists(INTS, max_size=2),
            )
            | st.builds(lambda x: (x,), inner)
            | st.builds(
                lambda extra, k, x: {**extra, k: x},
                st.dictionaries(TEXT, SCALARS, max_size=2), TEXT, inner,
            )
        )

    return st.recursive(st.sampled_from(bad), around, max_leaves=6).map(lambda x: {"doc": x})


@settings(max_examples=150, deadline=None)
@given(DOCS)
def test_dumps_json_is_byte_identical_to_json_dumps(doc):
    assert dumps_json(doc) == json.dumps(doc, indent=2, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(_buried([math.nan, math.inf, -math.inf, np.float64("nan")]))
def test_dumps_json_refuses_non_finite_numbers_at_any_depth(doc):
    with pytest.raises(ValueError) as reference:
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(NumericalIntegrityError) as refused:
        dumps_json(doc)
    assert str(refused.value) == f"refusing to emit a non-finite number: {reference.value}"


@settings(max_examples=50, deadline=None)
@given(_buried([np.int64(3), np.float32(0.5), np.bool_(True), {1, 2}, frozenset()]))
def test_dumps_json_refuses_values_json_cannot_encode(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        dumps_json(doc)


def test_dumps_json_refuses_keys_that_are_not_strings():
    with pytest.raises(TypeError):
        dumps_json({"a": {1: "one"}})


# Lists of same-key dicts of int lists (the shape of the classical tie list)
# are rendered from one entry template; every mutation below must either
# keep that output identical to json.dumps or fall back to the walker.

Answer = IntEnum("Answer", ["ZERO", "ONE"])

RECORD_MUTATIONS = (
    "none", "bool", "np.int64", "IntEnum", "big int", "key order",
    "ragged", "empty list", "empty dict", "nested dict", "dict element",
)


@st.composite
def RECORDS(draw):
    """A document holding a list of same-key dicts of int lists, with at most one mutation."""
    keys = draw(st.lists(st.text(st.sampled_from('fAB%d"é\\'), max_size=3), min_size=1, max_size=3, unique=True))
    shape = [draw(st.integers(1, 4)) for _ in keys]
    items = [
        {k: draw(st.lists(INTS, min_size=n, max_size=n)) for k, n in zip(keys, shape)}
        for _ in range(draw(st.integers(1, 5)))
    ]
    mutation = draw(st.sampled_from(RECORD_MUTATIONS))
    i, k = draw(st.integers(0, len(items) - 1)), draw(st.sampled_from(keys))
    item, j = items[i], draw(st.integers(0, shape[keys.index(k)] - 1))
    if mutation == "bool":
        item[k][j] = draw(st.booleans())
    elif mutation == "np.int64":
        item[k][j] = np.int64(j)
    elif mutation == "IntEnum":
        item[k][j] = Answer.ONE
    elif mutation == "big int":
        item[k][j] = draw(BIG | BIG.map(lambda n: -n))
    elif mutation == "key order":
        items[i] = dict(reversed(item.items()))
    elif mutation == "ragged":
        item[k].append(j)
    elif mutation == "empty list":
        item[k] = []
    elif mutation == "empty dict":
        items[i] = {}
    elif mutation == "nested dict":
        item[k] = {k: item[k]}
    elif mutation == "dict element":
        item[k][j] = {k: j}
    for key in draw(st.lists(TEXT, max_size=2)):
        items = {key: items}
    return {"records": items}


@settings(max_examples=300, deadline=None)
@given(RECORDS())
def test_dumps_json_record_lists_match_json_dumps(doc):
    try:
        expected = json.dumps(doc, indent=2, allow_nan=False)
    except TypeError as reference:
        with pytest.raises(TypeError) as refused:
            dumps_json(doc)
        assert str(refused.value) == str(reference)
    else:
        assert dumps_json(doc) == expected


@pytest.mark.parametrize("items", [[{}], [{}, {}], [{"fA": []}, {"fA": []}], [{"a%s": [1]}, {"a%s": [2]}]])
def test_dumps_json_record_edge_cases_match_json_dumps(items):
    assert dumps_json({"records": items}) == json.dumps({"records": items}, indent=2)


def test_dumps_json_classical_tie_list_matches_json_dumps():
    doc = classical_result_to_dict(classical_max(build_maxent(4, 0.0, allow_zero_epsilon=True)))
    assert len(doc["argmax"]) > 1000
    assert dumps_json(doc) == json.dumps(doc, indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# round trips through the emitter, bit for bit
# ---------------------------------------------------------------------------

SCALES = st.sampled_from([1.0, 1e-310, 1e300, -0.0])


def _bits(a):
    return np.asarray(a).tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 2), st.integers(0, 2), SCALES)
def test_random_strategy_round_trips_bit_for_bit(seed, d, wider_a, wider_b, scale):
    rng = np.random.default_rng(seed)
    dA, dB = d + wider_a, d + wider_b

    def cplx(*shape):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    s = QuantumStrategy(
        d=d, dA=dA, dB=dB, state=cplx(dA * dB), alice_pvms=cplx(3, d, dA, dA), bob_pvms=cplx(4, d, dB, dB)
    )
    t = strategy_from_dict(json.loads(dumps_json(strategy_to_dict(s))))
    assert (t.d, t.dA, t.dB) == (d, dA, dB)
    for name in ("state", "alice_pvms", "bob_pvms"):
        assert _bits(getattr(t, name)) == _bits(getattr(s, name))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.booleans(), SCALES)
def test_random_correlation_round_trips_bit_for_bit(seed, d, quantum_generated, scale):
    table = scale * np.random.default_rng(seed).random((3, 4, d, d))
    p = Correlation(d=d, table=table, quantum_generated=quantum_generated)
    q = correlation_from_dict(json.loads(dumps_json(correlation_to_dict(p))))
    assert (q.d, q.quantum_generated) == (d, quantum_generated)
    assert _bits(q.table) == _bits(p.table)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 6),
    st.floats(0.0, 2.0),
    st.sampled_from(list(CrossDiagonalMode)),
    st.booleans(),
)
def test_random_functional_round_trips_bit_for_bit(seed, d, epsilon, mode, tilted):
    if tilted:
        c = 0.1 + np.random.default_rng(seed).random(d)
        f = build_tilted(c / np.linalg.norm(c), epsilon, mode, allow_zero_epsilon=True)
    else:
        f = build_maxent(d, epsilon, mode, allow_zero_epsilon=True)
    g = functional_from_dict(json.loads(dumps_json(functional_to_dict(f))))
    fields = ("d", "epsilon", "variant", "mode", "tilted_spec")
    assert [getattr(g, k) for k in fields] == [getattr(f, k) for k in fields]
    assert _bits(g.coeff) == _bits(f.coeff)


def test_to_dict_walker_rules():
    """Kind tag first, then the fields in declaration order; enums as plain values."""
    f = build_tilted((0.6, 0.8), 0.1)
    report = verify_selftest(ideal_maxent_correlation(3), build_maxent(3, 0.1))
    chsh = chsh_reduction_even(ideal_maxent_strategy(4), (0,))
    assert isinstance(chsh, ChshStrategy)
    cases = [
        (ideal_maxent_correlation(2), "correlation"),
        (ideal_maxent_strategy(2), "strategy"),
        (chsh, "strategy"),
        (f, "functional"),
        (report, "selftest_report"),
        (f.tilted_spec, None),
        (report.weights, None),
    ]
    for obj, kind in cases:
        doc = to_dict(obj)
        fields = [field.name for field in dataclasses.fields(obj)]
        assert list(doc) == (["kind"] if kind else []) + fields
        assert doc.get("kind") == kind
    doc = to_dict(f)
    assert type(doc["variant"]) is str and type(doc["mode"]) is str
    assert type(doc["tilted_spec"]["c"]) is list
    assert to_dict(report)["checks"][0] == dataclasses.asdict(report.checks[0])
    assert np.array(to_dict(chsh)["state"]).shape == (chsh.dA * chsh.dB, 2)


# The classical tie array, an (n, 7) integer array, is rendered from one
# entry's bytes when every answer is a single digit.

TIE_ARRAYS = arrays(
    st.sampled_from([np.intp, np.int8, np.uint16]),
    st.tuples(st.integers(1, 40), st.just(7)),
    elements=st.integers(0, 9),
)


@settings(max_examples=150, deadline=None)
@given(TIE_ARRAYS, st.dictionaries(TEXT, SCALARS, max_size=2))
def test_dumps_json_tie_array_matches_json_dumps_of_its_records(ties, manifest):
    # The CLI's nesting: {"manifest": ..., "result": {..., "argmax": ties, ...}}.
    def doc(argmax):
        return {"manifest": manifest, "result": {"kind": "classical_max", "argmax": argmax, "note": None}}

    records = [{"fA": row[:3], "fB": row[3:]} for row in ties.tolist()]
    assert dumps_json(doc(ties)) == json.dumps(doc(records), indent=2, allow_nan=False)
