"""Command-line front end: build, evaluate, optimize, and verify functionals.

Subcommands
-----------

``build``
    Construct a functional and emit its coefficient tensor.
``classical``
    Exhaustive deterministic maximum, with optional epsilon/d sweeps.
``ideal``
    Ideal correlation and its Bell value.
``seesaw``
    Alternating-ascent optimization from seeded random starts.
``verify``
    Structural self-test verification of a correlation file; the process
    exit code is 0 exactly when the overall verdict passes.
``eval``
    Value of a functional file on a correlation file.

Every artifact (stdout JSON, ``--out`` files, CSV exports) embeds a manifest
recording the command, the fully resolved parameters, the tool version, and a
timestamp.  All randomness flows from ``--seed``; when the flag is absent a
fresh seed is drawn and recorded, so any artifact can be reproduced from its
manifest alone (:func:`argv_from_manifest`).  One rule names the flags: the
manifest key ``k`` is the flag ``--k`` with ``_`` written as ``-``.

Functional flags a command would ignore are refused with exit code 2:
``--bell`` with any of ``--d``, ``--tilted``, ``--coeffs``, ``--epsilon``,
``--cross-diagonal`` or ``--allow-zero-epsilon``; ``--coeffs`` without
``--tilted``; ``--bell``, ``--tilted`` or ``--coeffs`` with a sweep;
``--epsilon`` with ``--sweep-epsilon``; and ``--d`` with ``--sweep-d``.
A ``--correlation`` file whose table has a negative entry, an entry above
one or a question pair that does not sum to one is refused the same way;
a normalized table that signals is verified, and fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import __version__
from .classical import DEFAULT_CAP, classical_max
from .correlations import Correlation, validate_correlation
from .errors import ChshdError, InputError
from .functionals import (
    BellFunctional,
    CrossDiagonalMode,
    Variant,
    build_maxent,
    build_tilted,
    evaluate,
)
from .ideal import ideal_tilted_correlation
from .seesaw import InitKind, SeesawConfig, seesaw
from .selftest import VERIFY_TOL, verify_selftest, verify_selftest_tilted
from .serialize import (
    classical_result_to_dict,
    correlation_from_dict,
    correlation_to_dict,
    dumps_json,
    functional_from_dict,
    functional_to_dict,
    read_json,
    report_to_dict,
    seesaw_result_to_dict,
    write_text_atomic,
)

DEFAULT_EPSILON = 0.1

#: Flags that build a functional; ``--bell`` loads one and takes none of them.
_FUNCTIONAL_KEYS = ("d", "tilted", "coeffs", "epsilon", "cross_diagonal", "allow_zero_epsilon")


# ---------------------------------------------------------------------------
# manifests and artifacts
# ---------------------------------------------------------------------------


def make_manifest(command: str, parameters: dict) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _flag_repr(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def argv_from_manifest(manifest: dict) -> list[str]:
    """Reconstruct an equivalent command line from a manifest.

    Each parameter ``k`` becomes the flag ``--k`` with ``_`` written as
    ``-``, in the manifest's order: ``True`` is a switch, a list is
    comma-joined, ``None`` and ``False`` are left out, and any other value
    follows its flag.  An unknown key becomes an unknown flag, which the
    parser refuses.  The output path is intentionally not part of the
    manifest, so callers append their own ``--out`` when re-running.
    """
    argv = [str(manifest["command"])]
    for key, value in manifest["parameters"].items():
        if value is True:
            argv.append(_flag(key))
        elif isinstance(value, list):
            argv += [_flag(key), ",".join(_flag_repr(v) for v in value)]
        elif value is not None and value is not False:
            argv += [_flag(key), _flag_repr(value)]
    return argv


def _emit(args, params: dict, doc: dict, rows: list[dict] | None = None) -> None:
    """Write the artifact of ``args.command`` with its manifest.

    The artifact is ``doc`` after the manifest as JSON or, with ``--format
    csv`` and ``rows``, a CSV table under a ``# manifest: {...}`` line.
    ``--out`` is written atomically before the artifact is printed, so a
    closed stdout cannot lose the file.
    """
    manifest = make_manifest(args.command, params)
    if rows is not None and args.format == "csv":
        buffer = io.StringIO()
        buffer.write(f"# manifest: {json.dumps(manifest)}\n")
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        rendered = buffer.getvalue().rstrip("\n")
    else:
        rendered = dumps_json({"manifest": manifest} | doc)
    if args.out:
        write_text_atomic(args.out, rendered)
    print(rendered)


# ---------------------------------------------------------------------------
# shared argument groups
# ---------------------------------------------------------------------------


def _parse_list(text: str, flag: str, convert, noun: str) -> tuple:
    try:
        values = tuple(convert(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise InputError(f"{flag} expects comma-separated {noun}, got {text!r}") from exc
    if not values:
        raise InputError(f"{flag} expects at least one value, got {text!r}")
    return values


def _add_functional_flags(parser: argparse.ArgumentParser, with_bell: bool = False) -> None:
    parser.add_argument("--d", type=int, help="local dimension (plain family)")
    parser.add_argument("--tilted", action="store_true", help="build the tilted family instead")
    parser.add_argument("--coeffs", help="comma-separated state coefficients (tilted family)")
    parser.add_argument("--epsilon", type=float, help="cross-term penalty (default 0.1)")
    parser.add_argument(
        "--cross-diagonal",
        choices=[m.value for m in CrossDiagonalMode],
        help="treatment of the odd-d leftover diagonal pairs (default exclude)",
    )
    parser.add_argument(
        "--allow-zero-epsilon",
        action="store_true",
        help="permit epsilon = 0 (the functional then ignores cross terms)",
    )
    if with_bell:
        parser.add_argument("--bell", help="load the functional from a JSON file instead")


def _epsilon_and_mode(args) -> tuple[float, CrossDiagonalMode]:
    """``--epsilon`` and ``--cross-diagonal``, or their defaults (0.1, exclude) when not given."""
    epsilon = DEFAULT_EPSILON if args.epsilon is None else args.epsilon
    return epsilon, CrossDiagonalMode(args.cross_diagonal or CrossDiagonalMode.EXCLUDE.value)


def _resolve_functional(args) -> tuple[BellFunctional, dict]:
    """Build or load the functional; returns it with its manifest parameters."""
    if getattr(args, "bell", None):
        given = [
            _flag(k) for k in _FUNCTIONAL_KEYS
            if (value := getattr(args, k)) is not None and value is not False
        ]
        if given:
            raise InputError(f"--bell loads the functional; drop {' '.join(given)}")
        return _load(args.bell, "functional", functional_from_dict), {"bell": args.bell}
    if args.coeffs is not None and not args.tilted:
        raise InputError("--coeffs sets the tilted family's state; add --tilted")
    epsilon, mode = _epsilon_and_mode(args)
    params = {
        "epsilon": epsilon,
        "cross_diagonal": mode.value,
        "allow_zero_epsilon": args.allow_zero_epsilon,
    }
    if args.tilted:
        if not args.coeffs:
            raise InputError("--tilted requires --coeffs")
        coeffs = _parse_list(args.coeffs, "--coeffs", float, "reals")
        if args.d is not None and args.d != len(coeffs):
            raise InputError(f"--d {args.d} contradicts --coeffs of length {len(coeffs)}")
        f = build_tilted(coeffs, epsilon, mode, allow_zero_epsilon=args.allow_zero_epsilon)
        params |= {"tilted": True, "coeffs": list(coeffs)}
    else:
        if args.d is None:
            raise InputError("either --d (plain family) or --tilted --coeffs is required")
        f = build_maxent(args.d, epsilon, mode, allow_zero_epsilon=args.allow_zero_epsilon)
        params |= {"tilted": False, "d": args.d}
    return f, params


def _load(path: str, key: str, from_dict):
    """Read an object from ``path``, either bare or under ``key`` in an artifact."""
    doc = read_json(path)
    return from_dict(doc.get(key, doc))


def _load_correlation(path: str) -> Correlation:
    """The correlation in ``path``, refused with InputError unless it is a probability table.

    Range and normalization are checked, not no-signaling: a normalized
    table that signals is a valid input that verification calls ``failed``.
    """
    p = _load(path, "correlation", correlation_from_dict)
    violations = validate_correlation(p, check_no_signaling=False).violations
    if violations:
        v = violations[0]
        raise InputError(
            f"{path} does not hold a probability table: {v.kind} at {v.location} "
            f"by {v.magnitude:.3g} ({len(violations)} violation(s))"
        )
    return p


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(np.random.SeedSequence().entropy)


def _require_json_format(args, command: str) -> None:
    if args.format == "csv":
        raise InputError(f"{command} has no CSV representation; use --format json")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    _require_json_format(args, "build")
    f, params = _resolve_functional(args)
    _emit(args, params, {"functional": functional_to_dict(f)})
    return 0


def _classical_row(f: BellFunctional, cap: int) -> dict:
    result = classical_max(f, cap=cap)
    return {
        "d": f.d,
        "epsilon": f.epsilon,
        "mode": f.mode.value,
        "value": result.value,
        "reference_bound": result.reference_bound,
        "strategies_scanned": result.strategies_scanned,
        "argmax_count": len(result.ties),
        "note": result.note,
    }


def cmd_classical(args) -> int:
    if not (args.sweep_epsilon or args.sweep_d):
        _require_json_format(args, "classical (without a sweep)")
        f, params = _resolve_functional(args)
        params["cap"] = args.cap
        _emit(args, params, {"result": classical_result_to_dict(classical_max(f, cap=args.cap), ties_array=True)})
        return 0
    if args.sweep_epsilon and args.sweep_d:
        raise InputError("--sweep-epsilon and --sweep-d are mutually exclusive")
    if args.tilted:
        raise InputError("sweeps cover the plain family only")
    if args.bell:
        raise InputError("sweeps build their functionals; --bell cannot be combined with a sweep")
    if args.coeffs is not None:
        raise InputError("sweeps cover the plain family only; drop --coeffs")
    if args.sweep_d and args.d is not None:
        raise InputError("--sweep-d sets the dimensions; drop --d")
    if args.sweep_epsilon and args.epsilon is not None:
        raise InputError("--sweep-epsilon sets the epsilons; drop --epsilon")
    if args.d is None and not args.sweep_d:
        raise InputError("--sweep-epsilon requires --d")
    epsilon, mode = _epsilon_and_mode(args)
    params: dict = {
        "cross_diagonal": mode.value,
        "allow_zero_epsilon": args.allow_zero_epsilon,
        "cap": args.cap,
        "format": args.format,
    }
    if args.sweep_epsilon:
        epsilons = _parse_list(args.sweep_epsilon, "--sweep-epsilon", float, "reals")
        params |= {"d": args.d, "sweep_epsilon": list(epsilons)}
        cases = [(args.d, eps) for eps in epsilons]
    else:
        ds = _parse_list(args.sweep_d, "--sweep-d", int, "integers")
        params |= {"epsilon": epsilon, "sweep_d": list(ds)}
        cases = [(d, epsilon) for d in ds]
    rows = [
        _classical_row(build_maxent(d, eps, mode, allow_zero_epsilon=args.allow_zero_epsilon), args.cap)
        for d, eps in cases
    ]
    _emit(args, params, {"sweep": rows}, rows)
    return 0


def cmd_ideal(args) -> int:
    _require_json_format(args, "ideal")
    f, params = _resolve_functional(args)
    p = ideal_tilted_correlation(f.spec)
    doc = {
        "d": f.d,
        "variant": f.variant.value,
        "bell_value": evaluate(f, p),
        "bound": f.bound,
        "correlation": correlation_to_dict(p),
    }
    _emit(args, params, doc)
    return 0


def cmd_seesaw(args) -> int:
    f, params = _resolve_functional(args)
    seed = _resolve_seed(args)
    dims = _parse_list(args.dims, "--dims", int, "integers") if args.dims else None
    if dims is not None and len(dims) != 2:
        raise InputError(f"--dims expects dA,dB, got {args.dims!r}")
    config = SeesawConfig(
        dA=dims[0] if dims else None,
        dB=dims[1] if dims else None,
        restarts=args.restarts,
        max_iters=args.iters,
        convergence_tol=args.tol,
        seed=seed,
        init=InitKind(args.init),
        init_noise=args.noise,
    )
    params |= {
        "restarts": args.restarts,
        "iters": args.iters,
        "seed": seed,
        "tol": args.tol,
        "init": args.init,
        "noise": args.noise,
        "format": args.format,
    }
    if dims is not None:
        params["dims"] = list(dims)
    result = seesaw(f, config)
    rows = [
        {"restart": r, "iteration": i, "value": value}
        for r, trajectory in enumerate(result.trajectory)
        for i, value in enumerate(trajectory)
    ]
    _emit(args, params, seesaw_result_to_dict(result), rows)
    return 0


def cmd_verify(args) -> int:
    _require_json_format(args, "verify")
    f, params = _resolve_functional(args)
    p = _load_correlation(args.correlation)
    params |= {"correlation": args.correlation, "tol": args.tol}
    report = (verify_selftest if f.variant is Variant.MAXENT else verify_selftest_tilted)(p, f, tol=args.tol)
    _emit(args, params, report_to_dict(report))
    return 0 if report.passed else 1


def cmd_eval(args) -> int:
    _require_json_format(args, "eval")
    f = _load(args.bell, "functional", functional_from_dict)
    p = _load_correlation(args.correlation)
    _emit(args, {"bell": args.bell, "correlation": args.correlation}, {"value": evaluate(f, p)})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chshd",
        description="Build, optimize, and verify d-outcome CHSH-like Bell functionals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write the artifact to this path (atomically)")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p_build = sub.add_parser("build", help="construct a functional")
    _add_functional_flags(p_build)
    common_output(p_build)
    p_build.set_defaults(func=cmd_build)

    p_classical = sub.add_parser("classical", help="exhaustive deterministic maximum")
    _add_functional_flags(p_classical, with_bell=True)
    p_classical.add_argument(
        "--cap", type=int, default=DEFAULT_CAP, help=f"largest d to enumerate (default {DEFAULT_CAP})"
    )
    p_classical.add_argument("--sweep-epsilon", help="comma-separated epsilons (one row each)")
    p_classical.add_argument("--sweep-d", help="comma-separated dimensions (one row each)")
    common_output(p_classical)
    p_classical.set_defaults(func=cmd_classical)

    p_ideal = sub.add_parser("ideal", help="ideal correlation and its Bell value")
    _add_functional_flags(p_ideal)
    common_output(p_ideal)
    p_ideal.set_defaults(func=cmd_ideal)

    p_seesaw = sub.add_parser("seesaw", help="alternating-ascent optimization")
    _add_functional_flags(p_seesaw, with_bell=True)
    p_seesaw.add_argument("--restarts", type=int, default=8)
    p_seesaw.add_argument("--iters", type=int, default=200, help="max outer iterations")
    p_seesaw.add_argument("--seed", type=int, help="RNG seed (default: drawn and recorded)")
    p_seesaw.add_argument("--tol", type=float, default=1e-10, help="convergence tolerance")
    p_seesaw.add_argument(
        "--init", choices=[k.value for k in InitKind], default=InitKind.RANDOM.value
    )
    p_seesaw.add_argument("--noise", type=float, default=1e-2, help="ideal-perturbed noise scale")
    p_seesaw.add_argument("--dims", help="local dimensions dA,dB (default d,d)")
    common_output(p_seesaw)
    p_seesaw.set_defaults(func=cmd_seesaw)

    p_verify = sub.add_parser("verify", help="structural self-test verification")
    _add_functional_flags(p_verify, with_bell=True)
    p_verify.add_argument("--correlation", required=True, help="correlation JSON to verify")
    p_verify.add_argument("--tol", type=float, default=VERIFY_TOL)
    common_output(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate a functional file on a correlation file")
    p_eval.add_argument("--bell", required=True, help="functional JSON")
    p_eval.add_argument("--correlation", required=True, help="correlation JSON")
    common_output(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows up here, not at exit
        return code
    except ChshdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush cannot
        # fail again (the recipe in the Python ``signal`` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
