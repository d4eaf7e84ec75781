"""The benchmark workloads: job streams, inputs from the seed, and correctness gates.

A workload is a closed loop with one client: jobs run one after another in a
fixed repeating cycle, and each job's next input waits for the previous job.
``cycle(c)`` returns the jobs of cycle ``c``; every input is derived from the
workload seed, so the same seed gives the same job stream.

Jobs enter chshd through its public API: ``chshd.cli.main(argv)`` with
stdout captured, or the package's public functions where the CLI has no
command.  Every name is looked up at call time (``sys.modules[...]`` or the
``chshd`` package), so the tracer's wrappers see every call.

``Job.run`` is the timed work.  ``Job.check`` runs outside the timed span and
returns a summary of the result with ``ok`` (the gate passed) and ``hit``
(the job reached a solution of stated accuracy).
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import chshd
import chshd.cli  # noqa: F401  (registers the module in sys.modules)

HERE = Path(__file__).resolve().parent

#: A see-saw restart "hits" when it ends this close to its family's bound.
HIT_TOL = 1e-6
#: Upper slack on a see-saw best value above the bound.
BOUND_SLACK = 1e-9
#: Residual allowed on the CHSH reduction identity.
IDENTITY_TOL = 1e-12
#: Deviation allowed between an ideal correlation's value and the bound.
IDEAL_VALUE_TOL = 1e-9

#: Schmidt coefficients of the d = 4 tilted target used by the acceptance tests.
TILTED4 = (0.6, 0.5, 0.45, math.sqrt(0.1875))


def derive(seed: int, *parts) -> int:
    """A 31-bit integer determined by the workload seed and the parts."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass
class Job:
    id: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def fail(reason: str, **fields) -> dict:
    return {"ok": False, "hit": False, "reason": reason, **fields}


class Workload:
    """Base class: a seeded job stream plus the counters the worker reads."""

    name: str
    #: Latency percentile reported as ``job_tail_s``: a run at the commit
    #: that added the benchmark has at least ten samples beyond it.
    tail_pct: int

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.stdout_bytes = 0

    def setup(self) -> None:
        """Generate inputs and warm up; counted in ``setup_s``."""

    def cycle(self, c: int) -> list[Job]:
        raise NotImplementedError

    def run_cli(self, argv: list[str]) -> CliOutput:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = sys.modules["chshd.cli"].main(argv)
        text = out.getvalue()
        self.stdout_bytes += len(text.encode())
        return CliOutput(code, text, err.getvalue())

    def warm_up(self, jobs: list[Job]) -> None:
        for job in jobs:
            summary = job.check(job.run())
            if not summary["ok"]:
                raise RuntimeError(f"warm-up job {job.id} failed its check: {summary}")


# ---------------------------------------------------------------------------
# see-saw
# ---------------------------------------------------------------------------


class Seesaw(Workload):
    """Single-restart ``chshd seesaw`` jobs; ``mix`` lists (family, d, dims) per cycle slot.

    The square jobs (``dA = dB = d``) take the path where every answer pair
    is rank 1; the wide jobs have rank > 1 pairs and bypass a rank-1
    shortcut.  d = 4 runs twice in each half: it is the hot path, and it puts
    ``job_p50_s`` (the d = 4 square band) and ``job_tail_s`` (p75, the middle
    of the d = 4 wide band) inside one job type's band of the latency
    distribution rather than on a boundary between two types.
    """

    name = "seesaw"
    mix = (
        ("plain", 3, None),
        ("tilted", 4, None),
        ("plain", 4, None),
        ("plain", 4, None),
        ("plain", 6, None),
        ("plain", 3, (5, 5)),
        ("plain", 4, (6, 6)),
        ("plain", 4, (6, 6)),
    )
    tail_pct = 75

    def setup(self) -> None:
        self.warm_up([self._job("warm-up", "plain", 2, None, 0, iters=3)])

    def cycle(self, c: int) -> list[Job]:
        return [
            self._job(f"c{c}.{k}", family, d, dims, derive(self.seed, self.name, c, k))
            for k, (family, d, dims) in enumerate(self.mix)
        ]

    def _job(self, job_id, family, d, dims, seed, iters=None) -> Job:
        if family == "tilted":
            argv = ["seesaw", "--tilted", "--coeffs", ",".join(repr(v) for v in TILTED4)]
            bound = 1.0 + (1.0 if d > 2 else 0.0)
        else:
            argv = ["seesaw", "--d", str(d)]
            bound = chshd.quantum_bound(d)
        argv += ["--epsilon", "0.1", "--restarts", "1", "--seed", str(seed)]
        if dims is not None:
            argv += ["--dims", f"{dims[0]},{dims[1]}"]
        if iters is not None:
            argv += ["--iters", str(iters)]
        kind = f"seesaw-{family}-d{d}" + (f"-{dims[0]}x{dims[1]}" if dims else "")
        return Job(
            job_id,
            kind,
            lambda: self.run_cli(argv),
            lambda out: self._check(out, bound),
        )

    def _check(self, out: CliOutput, bound: float) -> dict:
        if out.code != 0:
            return fail(f"exit code {out.code}: {out.stderr.strip()}")
        doc = json.loads(out.stdout)
        trajectory = doc["trajectory"][0]
        best = doc["best_value"]
        slack = sys.modules["chshd.seesaw"].ASCENT_SLACK
        monotone = all(b >= a - slack for a, b in zip(trajectory, trajectory[1:]))
        strategy = sys.modules["chshd.serialize"].strategy_from_dict(doc["best_strategy"])
        valid = chshd.validate_strategy(strategy).is_valid
        summary = {
            "seed": doc["manifest"]["parameters"]["seed"],
            "best_value": best,
            "iterations": len(trajectory),
            "converged": doc["converged"][0],
        }
        if not monotone:
            return fail("trajectory not monotone within ASCENT_SLACK", **summary)
        if not best <= bound + BOUND_SLACK:
            return fail(f"best value {best!r} exceeds the bound {bound!r}", **summary)
        if not valid:
            return fail("best strategy fails validate_strategy", **summary)
        return {"ok": True, "hit": best >= bound - HIT_TOL, **summary}


# ---------------------------------------------------------------------------
# classical
# ---------------------------------------------------------------------------

#: Cross-term penalties the epsilon sweeps and --sweep-d jobs draw from.
EPS_GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5)
FROZEN_PATH = HERE / "classical_frozen.json"


def frozen_key(kind: str, d: int, epsilon: float, coeffs=None) -> str:
    if kind == "tilted":
        return "tilted:" + ",".join(repr(float(v)) for v in coeffs)
    return f"{kind}:{d}:{float(epsilon)!r}"


def argmax_digest(argmax: list) -> str:
    """sha256 of the argmax list as the CLI prints it (lexicographic order)."""
    text = json.dumps([[list(s["fA"]), list(s["fB"])] for s in argmax], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_oracles():
    """``tests/oracles.py`` of the checkout: the brute-force classical referee."""
    path = HERE.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("chshd_bench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


class Classical(Workload):
    """``chshd classical`` jobs checked against values frozen when the benchmark was added."""

    def setup(self) -> None:
        self.frozen = json.loads(FROZEN_PATH.read_text())
        self.tilted6 = [tuple(c) for c in self.frozen["tilted6_coefficients"]]
        self.oracles = load_oracles()
        self._oracle_cache: dict[tuple[int, float], tuple[float, list]] = {}
        c0 = self.tilted6[0]
        self.warm_up(
            [
                self._single("warm-up", ["--d", "2", "--epsilon", "0.1"], frozen_key("maxent", 2, 0.1), 2, 0.1),
                self._sweep("warm-up", ["--d", "2", "--sweep-epsilon", "0.1,0.2"], [frozen_key("maxent", 2, e) for e in (0.1, 0.2)]),
                self._sweep("warm-up", ["--sweep-d", "2,3", "--format", "csv"], [frozen_key("maxent", d, 0.1) for d in (2, 3)]),
                self._single("warm-up", ["--tilted", "--coeffs", ",".join(map(repr, c0))], frozen_key("tilted", 6, 0.1, c0)),
            ]
        )

    def cycle(self, c: int) -> list[Job]:
        rng = np.random.default_rng(derive(self.seed, self.name, c))
        jobs = [
            self._single(f"c{c}.d{d}", ["--d", str(d), "--epsilon", "0.1"], frozen_key("maxent", d, 0.1), d, 0.1)
            for d in range(2, 11)
        ]
        sweep_eps = sorted(float(e) for e in rng.choice(EPS_GRID, size=3, replace=False))
        jobs.append(
            self._sweep(
                f"c{c}.sweep-eps",
                ["--d", "10", "--sweep-epsilon", ",".join(repr(e) for e in sweep_eps)],
                [frozen_key("maxent", 10, e) for e in sweep_eps],
            )
        )
        sweep_d = sorted(int(d) for d in rng.choice(np.arange(2, 10), size=4, replace=False))
        eps = float(rng.choice(EPS_GRID))
        jobs.append(
            self._sweep(
                f"c{c}.sweep-d",
                ["--epsilon", repr(eps), "--sweep-d", ",".join(map(str, sweep_d)), "--format", "csv"],
                [frozen_key("maxent", d, eps) for d in sweep_d],
            )
        )
        coeffs = self.tilted6[int(rng.integers(len(self.tilted6)))]
        jobs.append(
            self._single(
                f"c{c}.tilted6",
                ["--tilted", "--coeffs", ",".join(repr(v) for v in coeffs), "--epsilon", "0.1"],
                frozen_key("tilted", 6, 0.1, coeffs),
            )
        )
        jobs.append(
            self._single(
                f"c{c}.eps0-d8",
                ["--d", "8", "--epsilon", "0", "--allow-zero-epsilon"],
                frozen_key("maxent", 8, 0.0),
            )
        )
        return jobs

    def _single(self, job_id, flags, key, d=None, eps=None) -> Job:
        argv = ["classical"] + flags
        return Job(job_id, "classical", lambda: self.run_cli(argv), lambda out: self._check_single(out, key, d, eps))

    def _sweep(self, job_id, flags, keys) -> Job:
        argv = ["classical"] + flags
        return Job(job_id, "classical-sweep", lambda: self.run_cli(argv), lambda out: self._check_sweep(out, keys))

    def _check_single(self, out: CliOutput, key: str, d, eps) -> dict:
        if out.code != 0:
            return fail(f"exit code {out.code}: {out.stderr.strip()}")
        result = json.loads(out.stdout)["result"]
        want = self.frozen["values"][key]
        summary = {
            "key": key,
            "value": result["value"],
            "argmax_count": len(result["argmax"]),
            "argmax_sha256": argmax_digest(result["argmax"]),
        }
        for field in ("value", "argmax_count", "argmax_sha256"):
            if summary[field] != want[field]:
                return fail(f"{field} differs from the frozen value {want[field]!r}", **summary)
        if d is not None and d <= 4:
            best, argmax = self._oracle(d, eps)
            got = [(tuple(s["fA"]), tuple(s["fB"])) for s in result["argmax"]]
            if abs(best - result["value"]) > 1e-12 or got != argmax:
                return fail("disagrees with tests/oracles.brute_force_classical", **summary)
        return {"ok": True, "hit": True, **summary}

    def _check_sweep(self, out: CliOutput, keys: list[str]) -> dict:
        if out.code != 0:
            return fail(f"exit code {out.code}: {out.stderr.strip()}")
        if out.stdout.startswith("# manifest:"):
            rows = list(csv.DictReader(io.StringIO(out.stdout.split("\n", 1)[1])))
        else:
            rows = json.loads(out.stdout)["sweep"]
        got = [(float(r["value"]), int(r["argmax_count"])) for r in rows]
        summary = {"keys": keys, "values": [g[0] for g in got], "argmax_counts": [g[1] for g in got]}
        want = [(self.frozen["values"][k]["value"], self.frozen["values"][k]["argmax_count"]) for k in keys]
        if got != want:
            return fail(f"sweep rows {got} differ from the frozen values {want}", **summary)
        return {"ok": True, "hit": True, **summary}

    def _oracle(self, d: int, eps: float):
        if (d, eps) not in self._oracle_cache:
            coeff = chshd.build_maxent(d, eps).coeff
            self._oracle_cache[(d, eps)] = self.oracles.brute_force_classical(coeff, d)
        return self._oracle_cache[(d, eps)]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

#: Noise strength of the perturbed strategies; far above the 1e-7 verify tolerance.
PERTURBATION = 1e-4
MAXENT_DIMS = tuple(range(2, 17))
TILTED_DIMS = tuple(range(2, 9))
CLI_VERIFY_DIMS = (3, 8, 12)
REDUCTION_DIMS = tuple(range(2, 9))


def perturb(s, noise: float, rng: np.random.Generator):
    """Rotate every measurement by its own near-identity unitary and jiggle the state."""

    def unitary(dim):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        vals, vecs = np.linalg.eigh((g + g.conj().T) / 2)
        return (vecs * np.exp(1j * noise * vals)) @ vecs.conj().T

    def rotate(pvms, dim):
        out = []
        for pvm in pvms:
            u = unitary(dim)
            out.append(tuple(u @ p @ u.conj().T for p in pvm))
        return tuple(out)

    state = s.state + noise * (rng.standard_normal(s.state.shape) + 1j * rng.standard_normal(s.state.shape))
    return chshd.QuantumStrategy(
        d=s.d,
        dA=s.dA,
        dB=s.dB,
        state=state / np.linalg.norm(state),
        alice_pvms=rotate(s.alice_pvms, s.dA),
        bob_pvms=rotate(s.bob_pvms, s.dB),
    )


class Verify(Workload):
    """Born rule + verification of ideal and perturbed strategies, CLI verify, reduction identity."""

    def setup(self) -> None:
        rng = np.random.default_rng(derive(self.seed, self.name))
        self.pool: list[tuple[str, Callable[[str], Job]]] = []
        for d in MAXENT_DIMS:
            ideal = chshd.ideal_maxent_strategy(d)
            chshd.ideal_maxent_correlation(d)  # the cached table every verify_selftest compares against
            for label, s in (("ideal", ideal), ("perturbed", perturb(ideal, PERTURBATION, rng))):
                self.pool.append((f"maxent-d{d}-{label}", self._born_factory(s, ("maxent", d), label)))
        for d in TILTED_DIMS:
            c = rng.uniform(0.5, 1.5, d)
            c = tuple(float(v) for v in c / np.linalg.norm(c))
            ideal = chshd.ideal_tilted_strategy(chshd.TiltedSpec.from_coefficients(c))
            for label, s in (("ideal", ideal), ("perturbed", perturb(ideal, PERTURBATION, rng))):
                self.pool.append((f"tilted-d{d}-{label}", self._born_factory(s, ("tilted", c), label)))
        serialize = sys.modules["chshd.serialize"]
        for d in CLI_VERIFY_DIMS:
            ideal = chshd.ideal_maxent_strategy(d)
            for label, s in (("ideal", ideal), ("perturbed", perturb(ideal, PERTURBATION, rng))):
                path = self.workdir / f"correlation-d{d}-{label}.json"
                p = chshd.correlation_from_quantum(s)
                serialize.write_json_atomic(path, {"correlation": serialize.correlation_to_dict(p)})
                self.pool.append((f"cli-verify-d{d}-{label}", self._cli_factory(d, path, label)))
        random_strategy = sys.modules["chshd.seesaw"].random_strategy
        for d in REDUCTION_DIMS:
            s = random_strategy(d, rng)
            self.pool.append((f"reduction-d{d}", self._reduction_factory(s)))
        first_of_kind = {}
        for _, factory in self.pool:
            job = factory("warm-up")
            first_of_kind.setdefault(job.kind, job)
        self.warm_up(list(first_of_kind.values()))

    def cycle(self, c: int) -> list[Job]:
        return [factory(f"c{c}.{name}") for name, factory in self.pool]

    # -- Born rule, evaluate, verify, report ------------------------------

    def _born_factory(self, s, family, label):
        expected = {"ideal": "self-tested", "perturbed": "failed"}
        if family[0] == "tilted":
            expected = {"ideal": "conjecture-consistent", "perturbed": "inconsistent"}

        def run():
            p = chshd.correlation_from_quantum(s)
            if family[0] == "tilted":
                f = chshd.build_tilted(family[1], 0.1)
                value = chshd.evaluate(f, p)
                report = chshd.verify_selftest_tilted(p, f)
            else:
                f = chshd.build_maxent(family[1], 0.1)
                value = chshd.evaluate(f, p)
                report = chshd.verify_selftest(p, f)
            return p, value, sys.modules["chshd.serialize"].report_to_dict(report)

        def check(out):
            p, value, doc = out
            summary = {"value": value, "verdict": doc["verdict"], "bound": doc["bound"]}
            if not chshd.validate_correlation(p).is_valid:
                return fail("Born table fails validate_correlation", **summary)
            if doc["verdict"] != expected[label]:
                return fail(f"verdict {doc['verdict']!r}, expected {expected[label]!r}", **summary)
            if label == "ideal" and abs(value - doc["bound"]) > IDEAL_VALUE_TOL:
                return fail("ideal value misses the bound", **summary)
            return {"ok": True, "hit": True, **summary}

        return lambda job_id: Job(job_id, f"born-{family[0]}", run, check)

    # -- chshd verify --correlation FILE ------------------------------------

    def _cli_factory(self, d, path, label):
        argv = ["verify", "--d", str(d), "--correlation", str(path)]
        expected = {"ideal": (0, "self-tested"), "perturbed": (1, "failed")}[label]

        def check(out: CliOutput):
            if out.code not in (0, 1):
                return fail(f"exit code {out.code}: {out.stderr.strip()}")
            doc = json.loads(out.stdout)
            summary = {"code": out.code, "verdict": doc["verdict"], "value": doc["bell_value"]}
            if (out.code, doc["verdict"]) != expected:
                return fail(f"got {(out.code, doc['verdict'])}, expected {expected}", **summary)
            return {"ok": True, "hit": True, **summary}

        return lambda job_id: Job(job_id, "cli-verify", lambda: self.run_cli(argv), check)

    # -- CHSH reduction identity ---------------------------------------------

    def _reduction_factory(self, s):
        d = s.d

        def run():
            o = chshd.greedy_sign_selection(s)
            reduce = chshd.chsh_reduction_even if d % 2 == 0 else chshd.chsh_reduction_odd
            lhs = chshd.chsh_value(reduce(s, o))
            p = chshd.correlation_from_quantum(s)
            cross = chshd.cross_contribution(p, o)
            rhs = sum(chshd.chsh_m_value(p, m) for m in range(d // 2)) + cross
            if d % 2:
                rhs += math.sqrt(2.0) / 2.0 * sum(p.table[x, y, d - 1, d - 1] for x in (0, 1) for y in (0, 1))
            return o, lhs, rhs, cross

        def check(out):
            o, lhs, rhs, cross = out
            summary = {"signs": list(o), "lhs": lhs, "residual": abs(lhs - rhs), "cross": cross}
            if abs(lhs - rhs) > IDENTITY_TOL:
                return fail("reduction identity residual above 1e-12", **summary)
            if cross < -IDENTITY_TOL:
                return fail("greedy sign selection left C(o) negative", **summary)
            return {"ok": True, "hit": True, **summary}

        return lambda job_id: Job(job_id, "reduction", run, check)


class Exact(Classical, Verify):
    """One cycle of the classical jobs followed by one of the verify jobs: everything but the see-saw."""

    name = "exact"
    tail_pct = 99

    def setup(self) -> None:
        Classical.setup(self)
        Verify.setup(self)

    def cycle(self, c: int) -> list[Job]:
        return Classical.cycle(self, c) + Verify.cycle(self, c)


WORKLOADS = {w.name: w for w in (Seesaw, Exact)}
