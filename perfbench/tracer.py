"""Per-layer tracing of geosampler from outside the package.

A module that does ``from .x import f`` binds ``f`` in its own namespace, so
replacing that binding (``geosampler.samplers.solve_relaxation``, say)
intercepts exactly the calls that module makes. Each wrapped call becomes a
span with a name, start, end and parent, kept in memory and written out when
the run ends. No file under ``src/`` changes, so any commit of the package
can be traced by the same code.

The program is single-process and single-threaded, so no layer ever waits on
another: spans nest strictly and there is no wait time to report.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from pathlib import Path

STEP_RULES = ("diminishing", "line-search", "away")

CLI_COMMANDS = (
    "generate", "groups", "optimize", "evaluate",
    "augment", "rank-study", "cost-sweep", "size-sweep",
)

# span name -> modules whose binding of the function is replaced. The defining
# module is listed when the benchmark itself, or the module internally, calls
# the function through that namespace.
WRAPPED = {
    "synth.generate": ("synth", "cli", "experiments"),
    "data.save_dataset": ("data", "cli"),
    "data.load_dataset": ("data", "cli", "experiments"),
    "data.expected_counts": ("data", "cli", "samplers"),
    "groups.admin_groups": ("groups", "cli", "experiments"),
    "groups.feature_kmeans_groups": ("groups", "cli", "experiments"),
    "learner.kmeans_groups": ("groups",),
    "learner.ridge_fit_cv": ("learner",),
    "learner.evaluate_sample": ("experiments",),
    "optimizer.lmo_knapsack": ("optimizer",),
    "optimizer.solve_relaxation": ("optimizer", "cli", "samplers"),
    "optimizer.round_inclusion": ("optimizer", "cli", "samplers"),
    "samplers.draw_initial_sample": ("samplers", "cli", "experiments"),
    "samplers.default_cluster_augment": ("experiments",),
    "samplers.greedy_size_augment": ("experiments",),
    "samplers.random_cluster_augment": ("experiments",),
    "samplers.optimized_augment": ("cli", "experiments"),
    "experiments.run_augmentation": ("experiments", "cli"),
    "experiments.run_rank_study": ("cli",),
    "experiments.run_cost_sweep": ("cli",),
    "experiments.run_initial_size_sweep": ("cli",),
}

# counter name -> (module, bound name); counted, not timed, because the
# solver calls them tens of thousands of times per solve
COUNTED = {
    "utility.gradient": ("optimizer", "utility_gradient_raw"),
    "utility.value": ("optimizer", "utility_value_raw"),
}

_CALLS_S_SELF = (
    "synth.generate", "data.load_dataset", "data.save_dataset",
    "data.expected_counts", "groups.admin_groups", "groups.feature_kmeans_groups",
    "learner.kmeans_groups", "learner.evaluate_sample", "optimizer.lmo_knapsack",
    "optimizer.round_inclusion", "samplers.draw_initial_sample",
    "samplers.default_cluster_augment", "samplers.greedy_size_augment",
    "samplers.random_cluster_augment", "samplers.optimized_augment",
)
_EXPERIMENTS = (
    "experiments.run_augmentation", "experiments.run_rank_study",
    "experiments.run_cost_sweep", "experiments.run_initial_size_sweep",
)

# (name, unit, better): the per-layer metrics, in the order BENCHMARK.json
# lists them. Metrics a workload does not exercise read 0.
PER_LAYER: list[tuple[str, str, str]] = (
    [(f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS]
    + [
        (f"{name}.{k}", "count" if k == "calls" else "s", "lower")
        for name in _CALLS_S_SELF
        for k in ("calls", "s", "self_s")
    ]
    + [
        ("data.bundle_bytes_read", "bytes-computed", "lower"),
        ("data.bundle_bytes_written", "bytes-computed", "lower"),
        ("learner.ridge_fit_cv.calls", "count", "lower"),
        ("learner.ridge_fit_cv.s", "s", "lower"),
        ("learner.ridge_fit_cv.rows", "count", "lower"),
        ("utility.gradient.calls", "count", "lower"),
        ("utility.value.calls", "count", "lower"),
    ]
    + [(f"utility.gradient_calls_per_iter.{r}", "ratio", "lower") for r in STEP_RULES]
    + [
        (f"optimizer.solve.{r}.{k}", unit, better)
        for r in STEP_RULES
        for k, unit, better in (
            ("s", "s", "lower"),
            ("iterations", "count", "lower"),
            ("gap_rel", "ratio", "lower"),
            ("converged", "ratio", "higher"),
        )
    ]
    + [
        ("optimizer.rounding_loss_rel", "ratio", "lower"),
        ("optimizer.budget_unspent_frac", "ratio", "lower"),
    ]
    + [(f"{name}.{k}", "s", "lower") for name in _EXPERIMENTS for k in ("s", "self_s")]
    + [
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)

# metrics that are ratios of a rep's own numbers, taken from the timed
# repetitions only; every other metric is summed over one set-up and one rep
_RATIO_PREFIXES = (
    "utility.gradient_calls_per_iter.", "optimizer.rounding_loss_rel",
    "optimizer.budget_unspent_frac", "trace.",
)
_RATIO_SUFFIXES = (".gap_rel", ".converged")


def _bundle_bytes(path) -> int:
    root = Path(path)
    return sum(
        p.stat().st_size
        for name in ("meta.json", "points.csv", "features.csv", "features.bin")
        if (p := root / name).exists()
    )


class Tracer:
    """Span recorder installed over geosampler's module namespaces."""

    def __init__(self, package: str = "geosampler"):
        self.package = package
        self.spans: list[dict] = []
        self.counts = {name: 0 for name in COUNTED}
        self.phase_counts: dict[str, dict[str, int]] = {}
        self.roundings: list[dict] = []
        self._stack: list[int] = []
        self._phase = ""
        # id(inclusion) -> (result, counts, spec); the value keeps the id alive
        self._solves: dict[int, tuple] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._value = None   # the unwrapped utility value, for rounding quality

    # -- installation ---------------------------------------------------

    def _module(self, short: str):
        return importlib.import_module(f"{self.package}.{short}")

    def install(self) -> None:
        """Replace every listed binding; calls are recorded until uninstall()."""
        for span_name, callers in WRAPPED.items():
            defining, func = span_name.split(".")
            wrapper = self._timed(span_name, getattr(self._module(defining), func))
            for caller in callers:
                self._replace(self._module(caller), func, wrapper)
        for counter, (mod, func) in COUNTED.items():
            module = self._module(mod)
            original = getattr(module, func)
            if counter == "utility.value":
                self._value = original
            self._replace(module, func, self._counted(counter, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _replace(self, module, attr: str, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _counted(self, counter: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            self.phase_counts[self._phase][counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                before = dict(self.counts)
                result = fn(*args, **kwargs)
                self._annotate(name, attrs, args, kwargs, result, before)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    def phase(self, label: str) -> None:
        """Start a new phase (``setup<i>`` or ``rep<i>``); spans are tagged with it."""
        self._phase = label
        self.phase_counts[label] = {name: 0 for name in COUNTED}

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields its attribute dict."""
        record = {
            "id": len(self.spans),
            "name": name,
            "phase": self._phase,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _annotate(self, name, attrs, args, kwargs, result, before) -> None:
        if name == "data.load_dataset":
            attrs["bytes_read"] = _bundle_bytes(args[0] if args else kwargs["path"])
        elif name == "data.save_dataset":
            attrs["bytes_written"] = _bundle_bytes(args[1] if len(args) > 1 else kwargs["path"])
        elif name == "learner.ridge_fit_cv":
            attrs["rows"] = int(len(args[0] if args else kwargs["X"]))
        elif name == "optimizer.solve_relaxation":
            opts = args[5] if len(args) > 5 else kwargs.get("opts")
            rule = opts.step_rule if opts is not None else "diminishing"
            gap_tol = opts.gap_tol if opts is not None else 1e-6
            gap_rel = result.gap / max(1.0, abs(result.utility))
            attrs.update(
                rule=rule,
                iterations=result.iterations,
                gap_rel=gap_rel,
                converged=gap_rel <= gap_tol,
                gradient_calls=self.counts["utility.gradient"] - before["utility.gradient"],
            )
            counts = args[1] if len(args) > 1 else kwargs["counts"]
            spec = args[3] if len(args) > 3 else kwargs["spec"]
            self._solves[id(result.inclusion)] = (result, counts, spec)
        elif name == "optimizer.round_inclusion":
            # quality of the rounding is computed after the run, off the clock
            solve = self._solves.get(id(args[1]))
            if solve is not None:
                ds, _, cm, budget = args[:4]
                self.roundings.append(
                    dict(ds=ds, cm=cm, budget=float(budget), selected=result,
                         solve=solve, phase=self._phase)
                )

    # -- metrics ----------------------------------------------------------

    def phase_metrics(self, phase: str) -> dict[str, float]:
        """Aggregate the spans of one phase into per-layer metric values."""
        spans = [s for s in self.spans if s["phase"] == phase]
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        m: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
        grad_calls = {r: 0 for r in STEP_RULES}
        solves = {r: [] for r in STEP_RULES}
        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            self_s = dur - child_time[s["id"]]
            if name.startswith("cli."):
                m[f"{name}.s"] += dur
                continue
            for key, val in (("calls", 1), ("s", dur), ("self_s", self_s)):
                if f"{name}.{key}" in m:
                    m[f"{name}.{key}"] += val
            attrs = s["attrs"]
            m["data.bundle_bytes_read"] += attrs.get("bytes_read", 0)
            m["data.bundle_bytes_written"] += attrs.get("bytes_written", 0)
            m["learner.ridge_fit_cv.rows"] += attrs.get("rows", 0)
            if name == "optimizer.solve_relaxation":
                rule = attrs["rule"]
                solves[rule].append(attrs)
                grad_calls[rule] += attrs["gradient_calls"]
                m[f"optimizer.solve.{rule}.s"] += dur
        counts = self.phase_counts.get(phase, {})
        m["utility.gradient.calls"] = counts.get("utility.gradient", 0)
        m["utility.value.calls"] = counts.get("utility.value", 0)
        for rule, runs in solves.items():
            if not runs:
                continue
            iters = sum(a["iterations"] for a in runs)
            m[f"optimizer.solve.{rule}.iterations"] = iters
            m[f"optimizer.solve.{rule}.gap_rel"] = max(a["gap_rel"] for a in runs)
            m[f"optimizer.solve.{rule}.converged"] = sum(a["converged"] for a in runs) / len(runs)
            m[f"utility.gradient_calls_per_iter.{rule}"] = grad_calls[rule] / iters
        losses, unspent = self._rounding_quality(phase)
        if losses:
            m["optimizer.rounding_loss_rel"] = statistics.fmean(losses)
            m["optimizer.budget_unspent_frac"] = statistics.fmean(unspent)
        return m

    def _rounding_quality(self, phase: str) -> tuple[list[float], list[float]]:
        import numpy as np

        value = self._value
        cost = self._module("data").cluster_cost
        losses, unspent = [], []
        for r in self.roundings:
            if r["phase"] != phase:
                continue
            result, counts, spec = r["solve"]
            ds = r["ds"]
            rounded = result.inclusion.committed.astype(np.float64)
            for cid in r["selected"]:
                rounded[ds.cluster_index[cid]] = 1.0
            u_round = value(rounded, counts, spec)
            losses.append((result.utility - u_round) / max(1e-12, abs(result.utility)))
            spent = sum(cost(r["cm"], ds.cluster(cid)) for cid in r["selected"])
            if r["budget"] > 0:
                unspent.append((r["budget"] - spent) / r["budget"])
        return losses, unspent

    def metrics(self, setup_phases: list[str], rep_phases: list[str]) -> dict[str, float]:
        """Median over set-ups plus median over traced reps for additive
        metrics; median over traced reps alone for ratios."""
        per_setup = [self.phase_metrics(p) for p in setup_phases]
        per_rep = [self.phase_metrics(p) for p in rep_phases]
        out = {}
        for name, _, _ in PER_LAYER:
            rep = statistics.median(m[name] for m in per_rep) if per_rep else 0.0
            if name.startswith(_RATIO_PREFIXES) or name.endswith(_RATIO_SUFFIXES):
                out[name] = rep
            else:
                setup = statistics.median(m[name] for m in per_setup) if per_setup else 0.0
                out[name] = setup + rep
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, default=str) + "\n")
