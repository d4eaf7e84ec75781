"""End-to-end command-line behaviour: exit codes, artifacts, and manifests."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chshd
from chshd import (
    Correlation,
    build_maxent,
    evaluate,
    ideal_maxent_correlation,
    quantum_bound,
)
from chshd.cli import argv_from_manifest, build_parser, main
from chshd.serialize import (
    correlation_to_dict,
    functional_from_dict,
    read_json,
    write_json_atomic,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_build_emits_functional_with_manifest(capsys, tmp_path):
    out = tmp_path / "f.json"
    code, doc = run_json(capsys, "build", "--d", "3", "--out", str(out))
    assert code == 0
    assert doc["manifest"]["command"] == "build"
    assert doc["manifest"]["parameters"]["d"] == 3
    f = functional_from_dict(doc["functional"])
    assert np.array_equal(f.coeff, build_maxent(3, 0.1).coeff)
    assert read_json(out) == doc


def test_ideal_reports_bound_attainment(capsys):
    code, doc = run_json(capsys, "ideal", "--d", "4")
    assert code == 0
    assert doc["bell_value"] == pytest.approx(quantum_bound(4), abs=1e-9)
    assert doc["bound"] == pytest.approx(quantum_bound(4))
    assert doc["correlation"]["d"] == 4


def test_ideal_tilted_uniform_value(capsys):
    code, doc = run_json(capsys, "ideal", "--tilted", "--coeffs", "0.5,0.5,0.5,0.5")
    assert code == 0
    assert doc["bell_value"] == pytest.approx(2.0, abs=1e-9)
    assert doc["variant"] == "tilted"


def test_classical_single_result(capsys):
    code, doc = run_json(capsys, "classical", "--d", "3")
    assert code == 0
    result = doc["result"]
    assert result["value"] == pytest.approx(2 + 2 * math.sqrt(2), abs=1e-12)
    assert result["strategies_scanned"] == 3**7
    assert {"fA": [2, 2, 2], "fB": [2, 2, 2, 2]} in result["argmax"]


def test_classical_epsilon_sweep_csv(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, text = run(
        capsys,
        "classical", "--d", "3", "--sweep-epsilon", "0.05,0.1,0.2",
        "--format", "csv", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    manifest = json.loads(lines[0].removeprefix("# manifest: "))
    assert manifest["command"] == "classical"
    assert manifest["parameters"]["sweep_epsilon"] == [0.05, 0.1, 0.2]
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 3
    assert all(float(row["value"]) == pytest.approx(2 + 2 * math.sqrt(2)) for row in rows)
    assert [float(row["epsilon"]) for row in rows] == [0.05, 0.1, 0.2]


def test_classical_dimension_sweep_rows(capsys):
    code, doc = run_json(capsys, "classical", "--sweep-d", "2,3,4")
    assert code == 0
    values = [row["value"] for row in doc["sweep"]]
    assert values[0] == pytest.approx(2.0, abs=1e-12)
    assert values[2] == pytest.approx(4.0, abs=1e-12)


def test_eval_matches_library_value(capsys, tmp_path):
    bell = tmp_path / "bell.json"
    corr = tmp_path / "corr.json"
    assert main(["build", "--d", "3", "--out", str(bell)]) == 0
    assert main(["ideal", "--d", "3", "--out", str(corr)]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, "eval", "--bell", str(bell), "--correlation", str(corr))
    assert code == 0
    expected = evaluate(build_maxent(3, 0.1), ideal_maxent_correlation(3))
    assert doc["value"] == pytest.approx(expected, abs=1e-12)


def test_seesaw_is_seed_reproducible(capsys):
    argv = ("seesaw", "--d", "2", "--restarts", "2", "--iters", "25", "--seed", "7")
    code_a, doc_a = run_json(capsys, *argv)
    code_b, doc_b = run_json(capsys, *argv)
    assert code_a == code_b == 0
    assert doc_a["best_value"] == doc_b["best_value"]
    assert doc_a["trajectory"] == doc_b["trajectory"]
    assert doc_a["best_value"] == pytest.approx(quantum_bound(2), abs=1e-6)


def test_seesaw_draws_and_records_seed(capsys):
    code, doc = run_json(capsys, "seesaw", "--d", "2", "--restarts", "1", "--iters", "10")
    assert code == 0
    seed = doc["manifest"]["parameters"]["seed"]
    assert isinstance(seed, int)
    replay = argv_from_manifest(doc["manifest"])
    assert "--seed" in replay and str(seed) in replay


def test_seesaw_csv_trajectory(capsys):
    code, text = run(
        capsys, "seesaw", "--d", "2", "--restarts", "2", "--iters", "15",
        "--seed", "3", "--format", "csv",
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("# manifest: ")
    rows = list(csv.DictReader(lines[1:]))
    assert {row["restart"] for row in rows} == {"0", "1"}
    values = [float(row["value"]) for row in rows if row["restart"] == "0"]
    assert values == sorted(values)  # ascent is monotone


# ---------------------------------------------------------------------------
# verification exit codes
# ---------------------------------------------------------------------------


def test_verify_ideal_exits_zero(capsys, tmp_path):
    corr = tmp_path / "corr.json"
    assert main(["ideal", "--d", "4", "--out", str(corr)]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, "verify", "--d", "4", "--correlation", str(corr))
    assert code == 0
    assert doc["verdict"] == "self-tested"


def test_verify_perturbed_exits_one(capsys, tmp_path):
    table = ideal_maxent_correlation(4).table.copy()
    table[0, 0, 0, 2] += 1e-3
    table[0, 0] /= table[0, 0].sum()
    corr = tmp_path / "bad.json"
    write_json_atomic(corr, correlation_to_dict(Correlation(d=4, table=table)))
    code, doc = run_json(capsys, "verify", "--d", "4", "--correlation", str(corr))
    assert code == 1
    assert doc["verdict"] == "failed"


def test_verify_non_finite_correlation_exits_two(capsys, tmp_path):
    doc = correlation_to_dict(ideal_maxent_correlation(3))
    doc["table"][0][1][2][2] = float("nan")
    corr = tmp_path / "nan.json"
    corr.write_text(json.dumps(doc))  # Python's json writes the NaN literal
    assert main(["verify", "--d", "3", "--correlation", str(corr)]) == 2
    assert "non-finite" in capsys.readouterr().err


def _scaled_by_two(table):
    table *= 2


def _negative_entry(table):
    # Every entry of the d = 3 ideal table is at most 1/3; the sums stay one.
    table[0, 0, 0, 0] -= 0.5
    table[0, 0, 1, 1] += 0.5


def _entry_above_one(table):
    table[1, 2, 0, 0] = 1.5


@pytest.mark.parametrize(
    "edit,kind",
    [(_scaled_by_two, "normalization"), (_negative_entry, "negative_entry"), (_entry_above_one, "entry_above_one")],
)
@pytest.mark.parametrize("command", ["eval", "verify"])
def test_correlation_that_is_not_a_probability_table_exits_two(capsys, tmp_path, edit, kind, command):
    bell = tmp_path / "bell.json"
    assert main(["build", "--d", "3", "--out", str(bell)]) == 0
    doc = correlation_to_dict(ideal_maxent_correlation(3))
    table = np.array(doc["table"])
    edit(table)
    doc["table"] = table.tolist()
    corr = tmp_path / "edited.json"
    write_json_atomic(corr, {"correlation": doc})
    capsys.readouterr()
    assert main([command, "--bell", str(bell), "--correlation", str(corr)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"does not hold a probability table: {kind} at (" in captured.err


def test_non_finite_output_exits_two(capsys, tmp_path):
    corr = tmp_path / "corr.json"
    assert main(["ideal", "--d", "3", "--out", str(corr)]) == 0
    capsys.readouterr()
    out = tmp_path / "report.json"
    argv = ["verify", "--d", "3", "--correlation", str(corr), "--tol", "nan", "--out", str(out)]
    assert main(argv) == 2  # the report would carry a NaN tolerance, which is not JSON
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out.exists()


def test_seesaw_nan_settings_exit_two_before_optimizing(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the optimization ran")

    monkeypatch.setattr("chshd.cli.seesaw", fail)
    settings = [("--tol", "nan"), ("--noise", "nan"), ("--tol", "inf"), ("--noise", "inf"), ("--seed", "-1")]
    names = {"--tol": "convergence_tol", "--noise": "init_noise", "--seed": "seed"}
    for flag, value in settings:
        assert main(["seesaw", "--d", "2", "--restarts", "1", "--seed", "0", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {names[flag]} must be ")


def test_memory_budget_refusals_exit_two_before_allocating(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the large arrays were allocated")

    monkeypatch.setattr("chshd.ideal._blockwise_pvm", fail)
    monkeypatch.setattr(sys.modules["chshd.seesaw"], "random_strategy", fail)  # chshd.seesaw is the function
    for argv in (["ideal", "--d", "400"], ["seesaw", "--d", "2", "--dims", "300,300", "--restarts", "1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "above the memory budget of 1,024 MiB" in captured.err


@pytest.mark.parametrize("key,value", [("variant", "bogus"), ("d", "three")])
def test_verify_bad_functional_field_exits_two(capsys, tmp_path, key, value):
    corr, bell = tmp_path / "corr.json", tmp_path / "bell.json"
    assert main(["ideal", "--d", "3", "--out", str(corr)]) == 0
    assert main(["build", "--d", "3", "--out", str(bell)]) == 0
    capsys.readouterr()
    doc = read_json(bell)
    doc["functional"][key] = value
    bell.write_text(json.dumps(doc))
    assert main(["verify", "--bell", str(bell), "--correlation", str(corr)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"bad {key!r} value" in captured.err


def test_verify_tilted_ideal_is_conjecture_consistent(capsys, tmp_path):
    corr = tmp_path / "tilted.json"
    coeffs = "0.6,0.5,0.45," + repr(math.sqrt(0.1875))
    assert main(["ideal", "--tilted", "--coeffs", coeffs, "--out", str(corr)]) == 0
    capsys.readouterr()
    code, doc = run_json(
        capsys, "verify", "--tilted", "--coeffs", coeffs, "--correlation", str(corr)
    )
    assert code == 0
    assert doc["verdict"] == "conjecture-consistent"


# ---------------------------------------------------------------------------
# manifests reproduce artifacts
# ---------------------------------------------------------------------------


def strip_manifest(doc):
    clean = copy.deepcopy(doc)
    clean.pop("manifest")
    return clean


def test_classical_manifest_replay_reproduces_payload(capsys):
    code, doc = run_json(capsys, "classical", "--d", "3", "--epsilon", "0.2")
    assert code == 0
    replay_code, replay_doc = run_json(capsys, *argv_from_manifest(doc["manifest"]))
    assert replay_code == 0
    assert strip_manifest(replay_doc) == strip_manifest(doc)
    assert replay_doc["manifest"]["parameters"] == doc["manifest"]["parameters"]


def test_seesaw_manifest_replay_reproduces_payload(capsys):
    code, doc = run_json(
        capsys, "seesaw", "--d", "3", "--restarts", "2", "--iters", "30", "--seed", "11"
    )
    assert code == 0
    replay_code, replay_doc = run_json(capsys, *argv_from_manifest(doc["manifest"]))
    assert replay_code == 0
    assert strip_manifest(replay_doc) == strip_manifest(doc)


def test_build_cross_diagonal_mode_changes_odd_d_coefficients(capsys):
    _, doc_ex = run_json(capsys, "build", "--d", "3")
    _, doc_in = run_json(capsys, "build", "--d", "3", "--cross-diagonal", "include")
    assert doc_ex["functional"]["coeff"] != doc_in["functional"]["coeff"]


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "--d", "1"),
        ("build", "--tilted"),  # missing --coeffs
        ("build", "--tilted", "--coeffs", "0.9,0.9"),  # not normalized
        ("build", "--d", "3", "--epsilon", "0"),  # needs --allow-zero-epsilon
        ("build", "--d", "4", "--coeffs", "0.6,0.8", "--tilted", "--d", "3"),
        ("classical", "--d", "11"),  # enumeration cap
        ("classical", "--d", "3", "--sweep-epsilon", "0.1", "--sweep-d", "2,3"),
        ("classical", "--d", "3", "--format", "csv"),  # csv needs a sweep
        ("seesaw", "--d", "3", "--dims", "3", "--restarts", "1"),
        ("verify", "--d", "3", "--correlation", "/nonexistent.json"),
    ],
)
def test_invalid_invocations_exit_two(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")


def test_eval_rejects_csv_format(capsys, tmp_path):
    bell = tmp_path / "bell.json"
    corr = tmp_path / "corr.json"
    assert main(["build", "--d", "2", "--out", str(bell)]) == 0
    assert main(["ideal", "--d", "2", "--out", str(corr)]) == 0
    code = main(
        ["eval", "--bell", str(bell), "--correlation", str(corr), "--format", "csv"]
    )
    assert code == 2


def test_build_rejects_csv_format(capsys, tmp_path):
    out = tmp_path / "bell.csv"
    assert main(["build", "--d", "3", "--format", "csv", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "build has no CSV representation" in captured.err
    assert not out.exists()


def test_epsilon_zero_allowed_when_requested(capsys):
    code, doc = run_json(
        capsys, "build", "--d", "3", "--epsilon", "0", "--allow-zero-epsilon"
    )
    assert code == 0
    assert doc["manifest"]["parameters"]["epsilon"] == 0.0


@pytest.mark.parametrize(
    "sweep", [("--sweep-d", "2,3"), ("--d", "3", "--sweep-epsilon", "0.1")]
)
def test_classical_sweep_refuses_functional_file(capsys, tmp_path, sweep):
    bell = tmp_path / "bell.json"
    assert main(["build", "--d", "2", "--out", str(bell)]) == 0
    capsys.readouterr()
    assert main(["classical", *sweep, "--bell", str(bell)]) == 2
    assert "--bell" in capsys.readouterr().err


def test_classical_dimension_sweep_refuses_d(capsys):
    assert main(["classical", "--sweep-d", "2,3", "--d", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--d" in captured.err


def test_classical_dimension_sweep_takes_epsilon(capsys):
    code, doc = run_json(capsys, "classical", "--epsilon", "0.2", "--sweep-d", "2,3")
    assert code == 0
    assert [row["epsilon"] for row in doc["sweep"]] == [0.2, 0.2]
    assert doc["manifest"]["parameters"]["sweep_d"] == [2, 3]


@pytest.mark.parametrize(
    "argv,message",
    [
        (("build", "--tilted", "--coeffs", "0.6,x"), "--coeffs expects comma-separated reals"),
        (("classical", "--d", "3", "--sweep-epsilon", ","), "--sweep-epsilon expects at least one value"),
        (("classical", "--sweep-d", "2,3.5"), "--sweep-d expects comma-separated integers"),
        (("seesaw", "--d", "3", "--dims", "a,b"), "--dims expects comma-separated integers"),
    ],
)
def test_list_flags_report_what_they_expect(capsys, argv, message):
    assert main(list(argv)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("coeffs,bound", [("0.6,0.8", 1.0), ("0.6,0.64,0.48", 2.0)])
def test_ideal_tilted_reports_its_bound(capsys, coeffs, bound):
    code, doc = run_json(capsys, "ideal", "--tilted", "--coeffs", coeffs)
    assert code == 0
    assert doc["bound"] == bound
    assert doc["bell_value"] == pytest.approx(bound, abs=1e-9)


# ---------------------------------------------------------------------------
# functional flags a command would ignore
# ---------------------------------------------------------------------------


@pytest.fixture
def artifacts(tmp_path, capsys):
    """A plain d = 3 functional file and its ideal correlation file."""
    paths = {"bell": str(tmp_path / "bell.json"), "corr": str(tmp_path / "corr.json")}
    assert main(["build", "--d", "3", "--out", paths["bell"]]) == 0
    assert main(["ideal", "--d", "3", "--out", paths["corr"]]) == 0
    capsys.readouterr()
    return paths


@pytest.mark.parametrize(
    "argv,message",
    [
        (("classical", "--bell", "{bell}", "--d", "5"), "drop --d"),
        (("seesaw", "--bell", "{bell}", "--tilted", "--restarts", "1"), "drop --tilted"),
        (("classical", "--bell", "{bell}", "--coeffs", "0.6,0.8"), "drop --coeffs"),
        (("verify", "--bell", "{bell}", "--epsilon", "0", "--correlation", "{corr}"), "drop --epsilon"),
        (("classical", "--bell", "{bell}", "--cross-diagonal", "exclude"), "drop --cross-diagonal"),
        (("classical", "--bell", "{bell}", "--allow-zero-epsilon"), "drop --allow-zero-epsilon"),
        (("classical", "--d", "3", "--coeffs", "0.6,0.8"), "add --tilted"),
        (("classical", "--d", "3", "--epsilon", "0.3", "--sweep-epsilon", "0.1"), "drop --epsilon"),
        (("classical", "--sweep-d", "2,3", "--coeffs", "0.6,0.8"), "drop --coeffs"),
        (("classical", "--d", "3", "--sweep-epsilon", "0.1", "--coeffs", "0.6,0.8"), "drop --coeffs"),
    ],
)
def test_ignored_functional_flags_exit_two(capsys, monkeypatch, artifacts, argv, message):
    def fail(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr("chshd.cli.classical_max", fail)
    monkeypatch.setattr("chshd.cli.seesaw", fail)
    assert main([arg.format(**artifacts) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("classical", "--tilted", "--coeffs", "0.6,0.8", "--epsilon", "0.2"),
        ("seesaw", "--d", "2", "--epsilon", "0.1", "--restarts", "1", "--seed", "1", "--iters", "5"),
    ],
)
def test_functional_flags_that_are_used_stay_valid(capsys, argv):
    assert main(list(argv)) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# manifest replay for every subcommand
# ---------------------------------------------------------------------------


def split_artifact(text):
    """The manifest and the payload of a JSON or CSV artifact."""
    if text.startswith("# manifest: "):
        head, _, body = text.partition("\n")
        return json.loads(head.removeprefix("# manifest: ")), body
    doc = json.loads(text)
    return doc.pop("manifest"), doc


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "--d", "3", "--cross-diagonal", "include"),
        ("classical", "--d", "3", "--cross-diagonal", "include", "--cap", "9"),
        ("classical", "--d", "3", "--sweep-epsilon", "0.05,0.2", "--allow-zero-epsilon"),
        ("classical", "--sweep-d", "2,3", "--epsilon", "0.2", "--format", "csv"),
        ("ideal", "--tilted", "--coeffs", "0.6,0.8"),
        ("seesaw", "--d", "2", "--restarts", "2", "--iters", "10", "--seed", "5", "--format", "csv"),
        ("seesaw", "--bell", "{bell}", "--restarts", "1", "--iters", "10", "--seed", "3"),
        ("verify", "--d", "3", "--correlation", "{corr}"),
        ("eval", "--bell", "{bell}", "--correlation", "{corr}"),
        ("classical", "--d", "8", "--epsilon", "0", "--allow-zero-epsilon"),
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_manifest_replay_reproduces_every_subcommand(capsys, artifacts, argv):
    code, text = run(capsys, *(arg.format(**artifacts) for arg in argv))
    manifest, payload = split_artifact(text)
    if not text.startswith("# manifest: "):
        # Every JSON artifact, the spliced tie list included, is json.dumps's text (and print's newline).
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    replay_code, replay_text = run(capsys, *argv_from_manifest(manifest))
    replay_manifest, replay_payload = split_artifact(replay_text)
    assert code == replay_code == 0
    assert replay_manifest["command"] == argv[0]
    assert replay_payload == payload
    assert replay_manifest["parameters"] == manifest["parameters"]


#: Manifest parameters copied verbatim from artifacts of the flag-table
#: implementation, with the command line that implementation rebuilt.
PARENT_MANIFESTS = [
    (
        "classical",
        {"epsilon": 0.2, "cross_diagonal": "exclude", "allow_zero_epsilon": False, "tilted": False, "d": 4, "cap": 10},
        ["--d", "4", "--epsilon", "0.2", "--cross-diagonal", "exclude", "--cap", "10"],
    ),
    (
        "seesaw",
        {
            "epsilon": 0.1, "cross_diagonal": "exclude", "allow_zero_epsilon": False, "tilted": True,
            "coeffs": [0.6, 0.8], "restarts": 1, "iters": 10, "seed": 2, "tol": 1e-10, "init": "random",
            "noise": 0.01, "format": "json", "dims": [3, 3],
        },
        [
            "--coeffs", "0.6,0.8", "--tilted", "--epsilon", "0.1", "--cross-diagonal", "exclude",
            "--restarts", "1", "--iters", "10", "--seed", "2", "--tol", "1e-10", "--init", "random",
            "--noise", "0.01", "--dims", "3,3", "--format", "json",
        ],
    ),
    (
        "classical",
        {"cross_diagonal": "exclude", "allow_zero_epsilon": False, "cap": 10, "format": "csv", "epsilon": 0.2, "sweep_d": [2, 3, 4]},
        ["--epsilon", "0.2", "--cross-diagonal", "exclude", "--sweep-d", "2,3,4", "--cap", "10", "--format", "csv"],
    ),
    (
        "classical",
        {"cross_diagonal": "exclude", "allow_zero_epsilon": False, "cap": 10, "format": "json", "d": 3, "sweep_epsilon": [0.05, 0.1]},
        ["--d", "3", "--cross-diagonal", "exclude", "--sweep-epsilon", "0.05,0.1", "--cap", "10", "--format", "json"],
    ),
    (
        "build",
        {"epsilon": 0.0, "cross_diagonal": "exclude", "allow_zero_epsilon": True, "tilted": False, "d": 3},
        ["--d", "3", "--epsilon", "0.0", "--cross-diagonal", "exclude", "--allow-zero-epsilon"],
    ),
    (
        "verify",
        {"bell": "b.json", "correlation": "c.json", "tol": 1e-07},
        ["--bell", "b.json", "--correlation", "c.json", "--tol", "1e-07"],
    ),
    ("eval", {"bell": "b.json", "correlation": "c.json"}, ["--bell", "b.json", "--correlation", "c.json"]),
]


@pytest.mark.parametrize("command,parameters,flags", PARENT_MANIFESTS)
def test_earlier_manifests_parse_to_the_same_namespace(command, parameters, flags):
    manifest = {"command": command, "parameters": parameters, "version": "0.1.0", "timestamp": "t"}
    parser = build_parser()
    assert parser.parse_args(argv_from_manifest(manifest)) == parser.parse_args([command, *flags])


def test_manifest_with_unknown_key_is_refused_on_replay(capsys):
    manifest = {"command": "classical", "parameters": {"d": 3, "cap": 10, "colour": "red"}}
    with pytest.raises(SystemExit) as exc:
        main(argv_from_manifest(manifest))
    assert exc.value.code == 2
    assert "--colour" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# closed stdout
# ---------------------------------------------------------------------------


def test_closed_stdout_exits_one_without_traceback(tmp_path):
    out = tmp_path / "ideal.json"
    # about 0.9 MB of JSON, far more than a pipe holds, so the write meets the closed end
    argv = [sys.executable, "-m", "chshd", "ideal", "--d", "64", "--out", str(out)]
    env = os.environ | {"PYTHONPATH": str(Path(chshd.__file__).parents[1])}
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert read_json(out)["d"] == 64  # --out was written before stdout


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-1e-300"])
def test_verify_bad_tolerance_exits_two_before_verifying(capsys, tmp_path, monkeypatch, tol):
    corr, out = tmp_path / "corr.json", tmp_path / "report.json"
    assert main(["ideal", "--d", "3", "--out", str(corr)]) == 0
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise AssertionError("the verification ran")

    monkeypatch.setattr("chshd.selftest.evaluate", fail)
    assert main(["verify", "--d", "3", "--correlation", str(corr), f"--tol={tol}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: verification tolerance must satisfy 0 <= tol < inf")
    assert not out.exists()


def test_verify_zero_tolerance_is_legal(capsys, tmp_path):
    corr = tmp_path / "corr.json"
    assert main(["ideal", "--d", "3", "--out", str(corr)]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, "verify", "--d", "3", "--correlation", str(corr), "--tol", "0")
    assert code in (0, 1)  # round-off may fail a check at tolerance 0; no refusal
    assert doc["manifest"]["parameters"]["tol"] == 0.0
