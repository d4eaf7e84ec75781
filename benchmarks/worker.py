"""One fresh benchmark process: set up a workload, then run it untraced or traced.

Started by ``run.py``; prints one JSON object as its last stdout line.

* ``--setup-only``: set up and report ``setup_wall_s`` (time since ``--t0``,
  the parent's monotonic clock just before it started this process) and
  ``setup_s``, the same time normalized by the reference kernel run right
  after set-up.
* untraced: run whole cycles of the job stream until the summed job time
  reaches ``--seconds``; check every job outside its timed span.  The
  reference kernel (``reference.py``) runs after every ``REFERENCE_EVERY_S``
  of job time, and each job's latency is also reported normalized by the
  kernel runs around it.
* ``--trace``: run the first cycle (the *window*) in repeated passes until
  the job time reaches ``--seconds``.  Each job runs once traced and then
  once untraced.  Every pass does identical work, so counts repeat exactly,
  and the ratio of traced to untraced time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Job time between two runs of the reference kernel.
REFERENCE_EVERY_S = 0.5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="parent's time.perf_counter() at spawn")
    p.add_argument("--deadline", type=float, required=True, help="perf_counter() value to stop by")
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_job(job, tracer=None):
    """Time one job; returns (seconds, output, error)."""
    if tracer is not None:
        tracer.job += 1
    start = time.perf_counter()
    try:
        out, error = job.run(), None
    except Exception as exc:  # a failing job counts in fail_frac, it does not abort the run
        out, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, error


def check_job(job, out, error) -> dict:
    if error is not None:
        return {"ok": False, "hit": False, "reason": error}
    try:
        return job.check(out)
    except Exception as exc:
        return {"ok": False, "hit": False, "reason": f"check raised {type(exc).__name__}: {exc}"}


def latency_metrics(latencies: list[float], total_s: float, tail_pct: int) -> dict:
    """Throughput and latency percentiles of the jobs that passed; ``total_s`` also counts failed jobs."""
    if not latencies:
        return {"jobs_per_s": None, "job_p50_s": None, "job_tail_s": None, "tail_samples_beyond": 0}
    p50, tail = (float(v) for v in np.percentile(latencies, [50, tail_pct]))
    return {
        "jobs_per_s": len(latencies) / total_s,
        "job_p50_s": p50,
        "job_tail_s": tail,
        "tail_samples_beyond": sum(v > tail for v in latencies),
    }


def untraced_run(workload, seconds: float, deadline: float, records: list) -> dict:
    import reference

    refs = [reference.run()]
    segment: list[int] = []  # for each record, the index of the kernel run before it
    hits, failed, timed, since_ref = 0, 0, 0.0, 0.0
    cycle, stopped_early = 0, False
    while timed < seconds and not stopped_early:
        for job in workload.cycle(cycle):
            if time.perf_counter() > deadline:
                stopped_early = True
                break
            elapsed, out, error = run_job(job)
            summary = check_job(job, out, error)
            timed += elapsed
            failed += not summary["ok"]
            hits += bool(summary["hit"])
            records.append({"job": job.id, "kind": job.kind, "latency_s": elapsed, **summary})
            segment.append(len(refs) - 1)
            since_ref += elapsed
            if since_ref >= REFERENCE_EVERY_S:
                refs.append(reference.run())
                since_ref = 0.0
        cycle += 1
    if since_ref > 0.0:
        refs.append(reference.run())
    for record, i in zip(records, segment):
        record["norm_latency_s"] = record["latency_s"] * reference.NOMINAL_S / ((refs[i] + refs[i + 1]) / 2)
    ok = [record for record in records if record["ok"]]
    attempted = len(records)
    raw = latency_metrics([r["latency_s"] for r in ok], timed, workload.tail_pct)
    norm_total = sum(r["norm_latency_s"] for r in records)
    norm = latency_metrics([r["norm_latency_s"] for r in ok], norm_total, workload.tail_pct)
    by_kind: dict[str, list[float]] = {}
    for record in ok:
        by_kind.setdefault(record["kind"], []).append(record["norm_latency_s"])
    return {
        "attempted": attempted,
        "failed": failed,
        "hits": hits,
        "timed_s": timed,
        "cycles": cycle,
        "stopped_early": stopped_early,
        **{f"norm_{name}": value for name, value in norm.items()},
        **raw,
        "tail_pct": workload.tail_pct,
        "reference_runs": len(refs),
        "reference_median_s": float(np.median(refs)),
        "reference_nominal_s": reference.NOMINAL_S,
        "host_speed": reference.NOMINAL_S / float(np.median(refs)),
        "s_per_hit": timed / hits if hits else None,
        "hit_frac": hits / attempted,
        "fail_frac": failed / attempted,
        "kinds": {kind: (len(v), float(np.median(v))) for kind, v in sorted(by_kind.items())},
    }


def traced_run(workload, seconds: float, deadline: float, records: list, spans_path: Path) -> dict:
    from tracing import Tracer, count_signature, layer_metrics

    window = workload.cycle(0)
    tracers, signatures = [], []
    traced_s = untraced_s = 0.0
    traced_bytes = failed = attempted = 0
    while not tracers or (traced_s + untraced_s < seconds and time.perf_counter() < deadline):
        tracer, pass_bytes = Tracer(), 0
        for job in window:
            # Each job runs traced and then untraced, so the pair sees the same machine state.
            bytes_before = workload.stdout_bytes
            tracer.install()
            try:
                traced = run_job(job, tracer)
            finally:
                tracer.remove()
            pass_bytes += workload.stdout_bytes - bytes_before
            untraced = run_job(job)
            traced_s += traced[0]
            untraced_s += untraced[0]
            for label, (latency, out, error) in (("traced", traced), ("untraced", untraced)):
                summary = check_job(job, out, error)
                attempted += 1
                failed += not summary["ok"]
                records.append({"job": job.id, "pass": len(tracers), "run": label, "latency_s": latency, **summary})
        tracers.append(tracer)
        traced_bytes += pass_bytes
        signatures.append(count_signature(tracer, pass_bytes))
    with spans_path.open("w") as handle:
        for p, tracer in enumerate(tracers):
            for name, start, end, parent, job in tracer.spans:
                handle.write(json.dumps({"pass": p, "job": job, "span": name, "start": start, "end": end, "parent": parent}) + "\n")
    metrics = layer_metrics(tracers, traced_bytes)
    jobs = len(window) * len(tracers)
    metrics["trace.jobs_per_s"] = jobs / traced_s
    metrics["trace.untraced_jobs_per_s"] = jobs / untraced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(tracers),
        "window_jobs": len(window),
        "counts_repeat": all(s == signatures[0] for s in signatures),
        "absent": sorted(set().union(*(t.absent for t in tracers))),
        "layer": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import chshd.cli  # noqa: F401  (import time is part of setup_s)

    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    setup_wall_s = time.perf_counter() - args.t0
    import reference

    reference.run()  # warm-up, not a sample
    kernel_s = (reference.run() + reference.run()) / 2
    setup = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s * reference.NOMINAL_S / kernel_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    records: list[dict] = []
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        result = traced_run(workload, args.seconds, args.deadline, records, workdir.parent / f"spans-{tag}.jsonl")
    else:
        result = untraced_run(workload, args.seconds, args.deadline, records)
    result.update(setup)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    build = np.show_config(mode="dicts")["Build Dependencies"]
    result["numpy"] = {"version": np.__version__, "blas": build.get("blas"), "lapack": build.get("lapack")}
    summary_path = workdir.parent / f"jobs-{tag}-trace{args.trace}.jsonl"
    with summary_path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    result["summary_path"] = str(summary_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
