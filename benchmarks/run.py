"""Run a chshd benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload seesaw --seed 1 --seconds 52 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 52 --trace 1

Workloads: seesaw, exact (see README.md);
``all`` runs each of them in turn, each with its own report and result line.

With ``--trace 0`` the run reports the end-to-end metrics: the workload is
set up in ``SETUP_REPEATS`` fresh processes and ``setup_s`` is the median of
their normalized set-up times.
One of them goes on to run the timed closed loop; the set-up-only processes
run half before it and half after, so that the samples span the run.
``setup_s`` and the ``norm_*`` metrics express times in seconds of a host on
which the reference kernel (``reference.py``) takes its nominal time; the
raw wall-time figures are printed beside them.  With
``--trace 1`` a single fresh process reports the per-layer metrics of the
traced window.

Every line but the last is a human-readable report (environment, every
metric by name with its unit); the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-job result
summaries and spans are written under ``.bench_work/`` in the checkout.

The process exits with a non-zero code, and prints no result, when the
checkout holds no chshd sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("seesaw", "exact")
SETUP_REPEATS = 5
#: Time kept back from the timed worker for the set-up processes after it.
AFTER_WORKER_S = 15.0
#: Whole-run budget; the benchmark must exit well within 180 s.
BUDGET_S = 170.0
#: BLAS/OpenMP thread count for the workers (at most nproc; 1 keeps runs steady).
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Reported in the text lines only: see README.md for why they are not bounded metrics.
EXTRA_METRICS = {
    "setup_wall_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "host_speed": "x",
    "s_per_hit": "s",
    "fail_frac": "fraction",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Run one chshd benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",), help="one workload, or all in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed span of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_threads": {var: BLAS_THREADS for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def spawn(args, env, workdir: Path, deadline: float, setup_only: bool) -> dict:
    t0 = time.perf_counter()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(t0),
        "--deadline", repr(deadline),
        "--workdir", str(workdir),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline + 5.0 - time.perf_counter())
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "chshd" / "__init__.py").is_file():
        print(f"error: no chshd sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    codes = [run_workload(argparse.Namespace(**dict(vars(args), workload=w))) for w in WORKLOADS]
    return max(codes)


def run_workload(args) -> int:
    """Run one workload in fresh worker processes and print its report and result line."""
    deadline = time.perf_counter() + BUDGET_S
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: BLAS_THREADS for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)  # the workers import chshd from this checkout's src/ only
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            result = spawn(args, env, workdir, deadline, setup_only=False)
        else:
            probe = lambda: spawn(args, env, workdir, deadline, setup_only=True)  # noqa: E731
            before = (SETUP_REPEATS - 1) // 2
            setups = [probe() for _ in range(before)]
            result = spawn(args, env, workdir, deadline - AFTER_WORKER_S, setup_only=False)
            setups += [result] + [probe() for _ in range(SETUP_REPEATS - 1 - before)]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("environment: " + json.dumps(environment(args) | {"numpy": result["numpy"]}))
    if args.trace:
        values = result["layer"]
        listed = spec["per_layer"]
        print(
            f"traced window: {result['window_jobs']} jobs x {result['passes']} passes, each job run traced "
            f"and then untraced; per-pass counts repeat exactly: {result['counts_repeat']}; "
            f"absent targets: {result['absent'] or 'none'}"
        )
        print(
            f"tracing overhead: traced {values['trace.jobs_per_s']:.4f} jobs/s vs untraced "
            f"{values['trace.untraced_jobs_per_s']:.4f} jobs/s ({100 * values['trace.overhead_frac']:+.2f}%)"
        )
    else:
        values = dict(
            result,
            setup_s=statistics.median(s["setup_s"] for s in setups),
            setup_wall_s=statistics.median(s["setup_wall_s"] for s in setups),
        )
        listed = spec["end_to_end"] + [{"name": k, "unit": u} for k, u in EXTRA_METRICS.items()]
        print(
            f"setup samples ({SETUP_REPEATS} fresh processes), normalized (wall): "
            + ", ".join(f"{s['setup_s']:.4f} ({s['setup_wall_s']:.4f})" for s in setups)
        )
        print(
            f"timed loop: {result['attempted']} jobs in {result['cycles']} cycles, {result['timed_s']:.3f} s timed; "
            f"norm_job_tail_s and job_tail_s are p{result['tail_pct']}, with {result['norm_tail_samples_beyond']} and "
            f"{result['tail_samples_beyond']} samples beyond them; "
            f"hits {result['hits']}" + ("; stopped early at the time budget" if result["stopped_early"] else "")
        )
        print(
            f"reference kernel: {result['reference_runs']} runs, median {1000 * result['reference_median_s']:.3f} ms "
            f"against {1000 * result['reference_nominal_s']:.3f} ms nominal; norm_* metrics scale each job by the runs around it"
        )
        print("median normalized latency by job kind: " + "; ".join(f"{k} {m:.4g} s (n={n})" for k, (n, m) in result["kinds"].items()))
    for m in listed:
        value = values[m["name"]]
        print(f"  {m['name']:32s} {'absent' if value is None else f'{value:.6g}':>14s} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end" if not args.trace else "per_layer"]}
    print(f"job summaries: {result['summary_path']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
