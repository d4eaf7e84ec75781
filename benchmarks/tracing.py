"""Spans around calls into each chshd module, recorded from outside the package.

The tracer replaces module attributes with timing wrappers while a traced
pass runs and restores them afterwards.  Callers inside chshd resolve most
names at call time through their own module globals (``from .seesaw import
seesaw`` in ``cli`` binds a second name), so a target is patched in every
``chshd`` module whose attribute *is* the original object.  Note that
``import chshd.seesaw`` yields the function re-exported by ``__init__``; the
module is reached through ``sys.modules``.

Spans are kept in memory: name, start, end, parent span and job.  A layer's
self time is its span time minus the time its child spans cover.  Calls to
``numpy.linalg.eigh`` are far too many for spans (about 300 per see-saw
iteration), so they are only counted and timed.

A target that no longer exists (after a refactor renames or removes it) is
recorded as absent, and every metric that depends only on absent targets is
reported as ``None`` instead of zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: span name -> (module, attribute) pairs whose calls open that span.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (("chshd.cli", "main"),),
    "seesaw": (("chshd.seesaw", "seesaw"),),
    "state_step": (("chshd.seesaw", "principal_eigenvector"),),
    "reduction": (
        ("chshd.seesaw", "chsh_reduction_even"),
        ("chshd.seesaw", "chsh_reduction_odd"),
        ("chshd.seesaw", "greedy_sign_selection"),
        ("chshd.seesaw", "cross_contribution"),
        ("chshd.seesaw", "chsh_value"),
    ),
    "classical": (("chshd.classical", "classical_max"),),
    "born": (("chshd.correlations", "correlation_from_quantum"),),
    "build": (("chshd.functionals", "build_maxent"), ("chshd.functionals", "build_tilted")),
    "evaluate": (("chshd.functionals", "evaluate"),),
    "cross_value": (("chshd.functionals", "cross_value"),),
    "selftest": (("chshd.selftest", "verify_selftest"), ("chshd.selftest", "verify_selftest_tilted")),
    "ideal": (
        ("chshd.ideal", "ideal_maxent_strategy"),
        ("chshd.ideal", "ideal_maxent_correlation"),
        ("chshd.ideal", "ideal_tilted_strategy"),
        ("chshd.ideal", "ideal_tilted_correlation"),
    ),
    "to_dict": tuple(
        ("chshd.serialize", name)
        for name in (
            "correlation_to_dict",
            "strategy_to_dict",
            "functional_to_dict",
            "tilted_spec_to_dict",
            "block_weights_to_dict",
            "report_to_dict",
            "classical_result_to_dict",
            "seesaw_result_to_dict",
        )
    ),
    "from_dict": tuple(
        ("chshd.serialize", name)
        for name in (
            "correlation_from_dict",
            "strategy_from_dict",
            "functional_from_dict",
            "tilted_spec_from_dict",
        )
    ),
    "read_json": (("chshd.serialize", "read_json"),),
}

#: per-layer metric -> the spans it is derived from (absent when all of them are).
LAYER_METRICS: dict[str, tuple[str, ...]] = {
    "seesaw.busy_s": ("seesaw",),
    "seesaw.restarts": ("seesaw",),
    "seesaw.iterations": ("seesaw",),
    "seesaw.converged_frac": ("seesaw",),
    "seesaw.state_step_calls": ("state_step",),
    "seesaw.state_step_s": ("state_step",),
    "seesaw.ascent_self_s": ("seesaw",),
    "seesaw.eigh_calls": ("seesaw",),
    "seesaw.eigh_s": ("seesaw",),
    "seesaw.eigh_per_iteration": ("seesaw",),
    "seesaw.reduction_s": ("reduction",),
    "classical.busy_s": ("classical",),
    "classical.strategies_scanned": ("classical",),
    "classical.argmax_entries": ("classical",),
    "classical.ns_per_strategy": ("classical",),
    "correlations.born_calls": ("born",),
    "correlations.born_s": ("born",),
    "functionals.build_calls": ("build",),
    "functionals.build_s": ("build",),
    "functionals.evaluate_s": ("evaluate",),
    "functionals.cross_value_s": ("cross_value",),
    "selftest.calls": ("selftest",),
    "selftest.busy_s": ("selftest",),
    "selftest.self_s": ("selftest",),
    "ideal.busy_s": ("ideal",),
    "serialize.to_dict_s": ("to_dict",),
    "serialize.from_dict_s": ("from_dict",),
    "serialize.read_json_s": ("read_json",),
    "cli.busy_s": ("cli",),
    "cli.self_s": ("cli",),
    "cli.stdout_bytes": ("cli",),
}

#: Counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = (
    "seesaw.restarts",
    "seesaw.iterations",
    "seesaw.state_step_calls",
    "seesaw.eigh_calls",
    "classical.strategies_scanned",
    "classical.argmax_entries",
    "correlations.born_calls",
    "functionals.build_calls",
    "selftest.calls",
    "cli.stdout_bytes",
)


def _chshd_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "chshd" or name.startswith("chshd."))]


class Tracer:
    """In-memory spans and counters for one traced pass; install/remove patch the package."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.absent: set[str] = set()
        self.job = -1
        self._stack: list[list] = []  # [name, start, child_time, span index]
        self._depth: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = _chshd_modules()
        for span, targets in TARGETS.items():
            found = False
            for module_name, attr in targets:
                module = sys.modules.get(module_name)
                original = getattr(module, attr, None) if module is not None else None
                if original is None:
                    continue
                found = True
                self._patch_everywhere(modules, original, self._wrap(span, original))
            if not found:
                self.absent.add(span)
        eigh = np.linalg.eigh
        self._patch_everywhere([np.linalg] + modules, eigh, self._wrap_eigh(eigh))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap(self, span: str, fn):
        on_result = _RESULT_HOOKS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def _wrap_eigh(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._depth["seesaw"]:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.inclusive["eigh"] += time.perf_counter() - start
                self.calls["eigh"] += 1

        return wrapper

    # -- spans ------------------------------------------------------------

    def _enter(self, span: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((span, 0.0, 0.0, parent, self.job))
        self._depth[span] += 1
        self._stack.append([span, time.perf_counter(), 0.0, len(self.spans) - 1])

    def _exit(self, span: str) -> None:
        end = time.perf_counter()
        name, start, child_time, index = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, self.spans[index][3], self.job)
        self.self_time[name] += duration - child_time
        self.calls[name] += 1
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += duration  # outermost call only, so nesting is not counted twice
        if self._stack:
            self._stack[-1][2] += duration


def _count_classical(counts: Counter, result) -> None:
    scanned = getattr(result, "strategies_scanned", None)
    argmax = getattr(result, "argmax", None)
    if scanned is not None:
        counts["strategies_scanned"] += int(scanned)
    if argmax is not None:
        counts["argmax_entries"] += len(argmax)


def _count_seesaw(counts: Counter, result) -> None:
    trajectory = getattr(result, "trajectory", None)
    converged = getattr(result, "converged", None)
    if trajectory is not None:
        counts["restarts"] += len(trajectory)
        counts["iterations"] += sum(len(t) for t in trajectory)
    if converged is not None:
        counts["converged"] += sum(bool(c) for c in converged)


_RESULT_HOOKS = {"classical": _count_classical, "seesaw": _count_seesaw}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_pass(total: float, passes: int) -> float:
    """Per-pass value; an exact count stays an int."""
    return total // passes if isinstance(total, int) and total % passes == 0 else total / passes


def layer_metrics(tracers: list[Tracer], stdout_bytes: int) -> dict[str, float | None]:
    """Per-pass layer metrics averaged over the traced passes (counts are per pass).

    ``stdout_bytes`` is the total captured CLI output over all traced passes.
    Ratios whose base is zero (no work on this workload) read 0.
    """
    passes = len(tracers)
    incl, selft, calls, counts = defaultdict(float), defaultdict(float), Counter(), Counter()
    for t in tracers:
        incl.update({k: incl[k] + v for k, v in t.inclusive.items()})
        selft.update({k: selft[k] + v for k, v in t.self_time.items()})
        calls.update(t.calls)
        counts.update(t.counts)
    incl = defaultdict(float, {k: v / passes for k, v in incl.items()})
    selft = defaultdict(float, {k: v / passes for k, v in selft.items()})
    calls = defaultdict(int, {k: _per_pass(v, passes) for k, v in calls.items()})
    counts = defaultdict(int, {k: _per_pass(v, passes) for k, v in counts.items()})
    values = {
        "seesaw.busy_s": incl["seesaw"],
        "seesaw.restarts": counts["restarts"],
        "seesaw.iterations": counts["iterations"],
        "seesaw.converged_frac": _ratio(counts["converged"], counts["restarts"]),
        "seesaw.state_step_calls": calls["state_step"],
        "seesaw.state_step_s": incl["state_step"],
        "seesaw.ascent_self_s": incl["seesaw"] - incl["state_step"],
        "seesaw.eigh_calls": calls["eigh"],
        "seesaw.eigh_s": incl["eigh"],
        "seesaw.eigh_per_iteration": _ratio(calls["eigh"], counts["iterations"]),
        "seesaw.reduction_s": incl["reduction"],
        "classical.busy_s": incl["classical"],
        "classical.strategies_scanned": counts["strategies_scanned"],
        "classical.argmax_entries": counts["argmax_entries"],
        "classical.ns_per_strategy": 1e9 * _ratio(incl["classical"], counts["strategies_scanned"]),
        "correlations.born_calls": calls["born"],
        "correlations.born_s": incl["born"],
        "functionals.build_calls": calls["build"],
        "functionals.build_s": incl["build"],
        "functionals.evaluate_s": incl["evaluate"],
        "functionals.cross_value_s": incl["cross_value"],
        "selftest.calls": calls["selftest"],
        "selftest.busy_s": incl["selftest"],
        "selftest.self_s": selft["selftest"],
        "ideal.busy_s": incl["ideal"],
        "serialize.to_dict_s": incl["to_dict"],
        "serialize.from_dict_s": incl["from_dict"],
        "serialize.read_json_s": incl["read_json"],
        "cli.busy_s": incl["cli"],
        "cli.self_s": selft["cli"],
        "cli.stdout_bytes": _per_pass(stdout_bytes, passes),
    }
    absent = set().union(*(t.absent for t in tracers))
    out: dict[str, float | None] = {}
    for name, spans in LAYER_METRICS.items():
        out[name] = None if all(s in absent for s in spans) else values[name]
    return out


def count_signature(tracer: Tracer, stdout_bytes: int) -> dict[str, float | None]:
    """The exact counts of one traced pass, for the repeat check."""
    metrics = layer_metrics([tracer], stdout_bytes)
    return {k: metrics[k] for k in EXACT_COUNTS}
