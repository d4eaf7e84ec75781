"""Frozen tie listings of ``classical_max`` and its CLI output, and tie-heavy oracle checks.

At epsilon = 0 the plain functional ties on every Alice row, so its argmax
lists run to tens of thousands of strategies.  Their counts and the sha256
of their listings, and of the whole ``chshd classical`` output at d = 8 with
the manifest timestamp masked, are frozen here: any change to the listing or
its rendering has to reproduce them byte for byte.
"""

import contextlib
import hashlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshd import (
    BellFunctional,
    CrossDiagonalMode,
    DeterministicStrategy,
    Variant,
    build_maxent,
    build_tilted,
    classical_max,
)
from chshd.cli import main
from chshd.serialize import classical_result_to_dict

from oracles import brute_force_classical

TILTED3 = (0.6, 0.64, 0.48)

#: ``(value, argmax count, sha256 of the compact [[fA, fB], ...] listing)`` at epsilon = 0.
FROZEN_TIES = {
    "maxent-d5-exclude": (
        4.82842712474619,
        38,
        "32e058a45a8ea5b08c641f03f3b32936648b569a460ae698eda08878a309c02a",
    ),
    "maxent-d6-exclude": (
        4.0,
        4704,
        "6664e79a7cbacfee5360b13d3d5086e6fbf9e04104c9a4381b582c1df9fcd5a4",
    ),
    "maxent-d6-include": (
        4.0,
        4704,
        "6664e79a7cbacfee5360b13d3d5086e6fbf9e04104c9a4381b582c1df9fcd5a4",
    ),
    "maxent-d10-exclude": (
        4.0,
        27040,
        "46d4941409dd2c5f0af7c54ff9c36b21c7137ac35737c6930a0b9857894eea2a",
    ),
    "maxent-d10-include": (
        4.0,
        27040,
        "46d4941409dd2c5f0af7c54ff9c36b21c7137ac35737c6930a0b9857894eea2a",
    ),
    "tilted-d3-exclude": (
        1.6741475931618748,
        7,
        "890d3205cf0f22868f1efdf70de35dd78c74306b448979e847789857b925b3d3",
    ),
}


def _functional(key):
    kind, d, mode = key.split("-")
    if kind == "tilted":
        return build_tilted(TILTED3, 0.0, allow_zero_epsilon=True)
    return build_maxent(int(d[1:]), 0.0, CrossDiagonalMode(mode), allow_zero_epsilon=True)


def _listing_sha256(res):
    listing = json.dumps([[list(s.fA), list(s.fB)] for s in res.argmax], separators=(",", ":"))
    return hashlib.sha256(listing.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(FROZEN_TIES))
def test_epsilon_zero_tie_listing_frozen(key):
    res = classical_max(_functional(key))
    assert (res.value, len(res.argmax), _listing_sha256(res)) == FROZEN_TIES[key]


#: sha256 of ``chshd classical --d 8 --epsilon 0 --allow-zero-epsilon`` stdout, timestamp masked.
CLI_D8_SHA256 = "8b07b5913ae5e9a7eb529f86d3715565c6e942dac8bd24522ab028ded8be7d5a"


def test_cli_classical_epsilon_zero_d8_output_frozen():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classical", "--d", "8", "--epsilon", "0", "--allow-zero-epsilon"])
    assert code == 0
    text, n = re.subn(r'"timestamp": "[^"]*"', '"timestamp": "T"', out.getvalue())
    assert n == 1
    assert hashlib.sha256(text.encode()).hexdigest() == CLI_D8_SHA256


@st.composite
def tie_heavy_functionals(draw):
    """Plain-labelled functionals at epsilon 0 whose coefficients are mostly 0, else -1, 1 or 0.5."""
    d = draw(st.sampled_from((2, 3)))
    mode = draw(st.sampled_from(list(CrossDiagonalMode)))
    values = st.sampled_from((0.0, 0.0, 0.0, -1.0, 1.0, 0.5))
    coeff = draw(st.lists(values, min_size=12 * d * d, max_size=12 * d * d))
    return BellFunctional(d, 0.0, Variant.MAXENT, mode, np.reshape(coeff, (3, 4, d, d)))


@settings(max_examples=60, deadline=None)
@given(f=tie_heavy_functionals())
def test_tie_heavy_tensors_match_brute_force_oracle(f):
    res = classical_max(f)
    best, argmax = brute_force_classical(f.coeff, f.d)
    assert res.value == best
    assert [(s.fA, s.fB) for s in res.argmax] == argmax


def test_ties_array_is_read_only_and_lists_argmax_in_order():
    res = classical_max(_functional("maxent-d6-exclude"))
    assert res.ties.shape == (4704, 7) and res.ties.dtype.kind == "i"
    assert not res.ties.flags.writeable
    with pytest.raises(ValueError):
        res.ties[0, 0] = 1
    assert [tuple(row) for row in res.ties.tolist()] == [s.fA + s.fB for s in res.argmax]
    assert res.argmax is res.argmax


def _cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return out.getvalue()


def test_cli_tie_list_with_two_digit_answers_is_the_walked_json():
    # At d = 11 the answers reach 10, past the one-digit entry template.
    argv = ["classical", "--d", "11", "--cap", "11", "--epsilon", "0", "--allow-zero-epsilon"]
    text = _cli_stdout(*argv)
    res = classical_max(build_maxent(11, 0.0, allow_zero_epsilon=True), cap=11)
    assert len(res.ties) == 110 and res.ties.max() == 10
    doc = {"manifest": json.loads(text)["manifest"], "result": classical_result_to_dict(res)}
    assert text == json.dumps(doc, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["classical", "--d", "8", "--epsilon", "0", "--allow-zero-epsilon"],
        ["classical", "--sweep-d", "3,6,8", "--epsilon", "0", "--allow-zero-epsilon"],
    ],
)
def test_cli_classical_builds_no_deterministic_strategy(monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a DeterministicStrategy was built")

    monkeypatch.setattr(DeterministicStrategy, "_trusted", classmethod(refuse))
    monkeypatch.setattr(DeterministicStrategy, "__post_init__", refuse)
    assert json.loads(_cli_stdout(*argv))
