"""Relaxed sample optimization: maximize a concave utility over the inclusion
polytope {0 <= s <= 1, cost(s) <= B', s = 1 on committed clusters}, then round
to a feasible cluster set.

The solver is Frank-Wolfe: each iteration linearizes the utility at the
current point and moves toward the vertex returned by a fractional-knapsack
linear maximization oracle. Termination is certified by the duality gap
grad(s) . (d - s), which upper-bounds the suboptimality of s for concave
utilities.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import CostModel, Dataset, SampleState, cluster_cost, set_cost
from .utility import (
    ExpectedCounts,
    InclusionVector,
    UtilitySpec,
    utility_gradient_raw,
    utility_value_raw,
)

STEP_RULES = ("diminishing", "line-search", "away")


class OptimizerError(ValueError):
    pass


class InfeasibleError(OptimizerError):
    """The remaining budget cannot accommodate the request."""


@dataclass(frozen=True)
class SolveOptions:
    """Solver controls.

    ``step_rule`` picks the iteration flavor: ``diminishing`` is plain
    Frank-Wolfe with step 2/(t+2); ``line-search`` replaces the step size by
    an exact one-dimensional maximization; ``away`` additionally allows away
    steps over the active vertex set, which removes the zigzag stall of plain
    iterations when the optimum mixes many vertices and is the right choice
    for tight gap tolerances.
    """

    max_iters: int = 500
    gap_tol: float = 1e-6          # relative to max(1, |U|)
    step_rule: str = "diminishing"

    def __post_init__(self):
        if self.max_iters < 1:
            raise OptimizerError("max_iters must be >= 1")
        if self.gap_tol <= 0:
            raise OptimizerError("gap_tol must be positive")
        if self.step_rule not in STEP_RULES:
            raise OptimizerError(f"unknown step rule {self.step_rule!r}")


@dataclass(frozen=True)
class SolveResult:
    inclusion: InclusionVector
    utility: float
    gap: float               # duality gap at the returned iterate
    iterations: int
    budget_used: float       # relaxed cost of the unlocked coordinates
    utility_trace: tuple[float, ...]


def lmo_knapsack(
    grad: np.ndarray,
    costs: np.ndarray,
    budget: float,
    locked: np.ndarray | None = None,
) -> np.ndarray:
    """Maximize grad . d over {0 <= d <= 1, sum c_i d_i <= budget} on unlocked
    coordinates via fractional knapsack.

    Coordinates are filled to 1 in order of decreasing grad_i / c_i (ties to
    the lower index) until the budget binds; the last item may be fractional,
    so the output has at most one fractional coordinate. Locked coordinates
    are returned as 1 and charge nothing.
    """
    grad = np.asarray(grad, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    if budget < 0:
        raise OptimizerError("budget must be non-negative")
    m = len(grad)
    if locked is None:
        locked = np.zeros(m, dtype=bool)
    d = np.zeros(m, dtype=np.float64)
    d[locked] = 1.0
    idx = np.flatnonzero(~locked)
    if idx.size == 0:
        return d
    if np.any(costs[idx] <= 0):
        raise OptimizerError("costs must be positive for unlocked clusters")
    ratio = grad[idx] / costs[idx]
    order = idx[np.lexsort((idx, -ratio))]
    rem = float(budget)
    for i in order:
        if grad[i] <= 0:
            break
        if costs[i] <= rem:
            d[i] = 1.0
            rem -= costs[i]
        else:
            if rem > 0:
                d[i] = rem / costs[i]
            break
    return d


def remaining_budget(ds: Dataset, cm: CostModel, state: SampleState) -> float:
    """Budget left for new clusters under the cost model's budget scope."""
    if cm.budget_scope == "augmentation":
        return cm.budget - state.spent
    return cm.budget - set_cost(cm, ds, state.all_cluster_ids())


def _bind_costs(cm: CostModel, state: SampleState) -> CostModel:
    return cm if cm.initial_strata is not None else cm.with_initial_strata(state.initial_strata)


def solve_relaxation(
    ds: Dataset,
    counts: ExpectedCounts,
    cm: CostModel,
    spec: UtilitySpec,
    state: SampleState,
    opts: SolveOptions | None = None,
) -> SolveResult:
    """Frank-Wolfe solve of the relaxed selection problem.

    Committed clusters (the current sample) are locked at 1; decision
    variables are the unsampled source clusters. Terminates when the duality
    gap falls below gap_tol * max(1, |U(s)|) or after max_iters iterations.
    """
    opts = opts or SolveOptions()
    cm = _bind_costs(cm, state)
    budget = remaining_budget(ds, cm, state)
    if budget < 0:
        raise InfeasibleError(
            f"remaining budget is negative ({budget:.6g}); "
            f"scope={cm.budget_scope!r}, total={cm.budget:.6g}"
        )

    m = ds.n_clusters
    committed = np.zeros(m, dtype=bool)
    for cid in state.all_cluster_ids():
        committed[ds.cluster_index[cid]] = True
    available = ds.cluster_is_source & ~committed
    decision = np.flatnonzero(committed | available)
    locked_dec = committed[decision]
    costs_dec = np.array(
        [cluster_cost(cm, ds.clusters[j]) for j in decision], dtype=np.float64
    )

    s = np.zeros(m, dtype=np.float64)
    s[committed] = 1.0

    def dd(values: np.ndarray, delta: np.ndarray, t: float) -> float:
        g = utility_gradient_raw(values + t * delta, counts, spec)
        return float(g @ delta)

    # away steps track the convex decomposition of the iterate
    vertices: list[np.ndarray] = [s.copy()]
    weights: list[float] = [1.0]

    trace: list[float] = []
    best_s, best_f, best_gap = s.copy(), -np.inf, np.inf
    iterations = 0
    for t in range(opts.max_iters):
        iterations = t + 1
        f = utility_value_raw(s, counts, spec)
        grad = utility_gradient_raw(s, counts, spec)
        trace.append(f)
        if t == 0 and budget > 0 and np.any(~locked_dec):
            if not np.any(grad[decision][~locked_dec] > 0):
                raise OptimizerError(
                    "utility gradient vanishes on every candidate cluster"
                )
        d_dec = lmo_knapsack(grad[decision], costs_dec, budget, locked_dec)
        d_full = s.copy()
        d_full[decision] = d_dec
        fw_delta = d_full - s
        gap = float(grad @ fw_delta)
        if f > best_f:
            best_s, best_f, best_gap = s.copy(), f, gap
        if gap <= opts.gap_tol * max(1.0, abs(f)):
            best_s, best_f, best_gap = s.copy(), f, gap
            break

        if opts.step_rule == "diminishing":
            s = np.clip(s + (2.0 / (t + 2.0)) * fw_delta, 0.0, 1.0)
            s[committed] = 1.0
        elif opts.step_rule == "line-search":
            step = _bisect_step(dd, s, fw_delta, 1.0)
            s = np.clip(s + step * fw_delta, 0.0, 1.0)
            s[committed] = 1.0
        else:
            s = _away_step(
                dd, grad, s, d_full, fw_delta, gap, vertices, weights
            )

    values = best_s
    spent = float(costs_dec[~locked_dec] @ values[decision][~locked_dec])
    if spent > budget * (1 + 1e-9) + 1e-12:
        raise OptimizerError(
            f"internal error: relaxed cost {spent:.9g} exceeds budget {budget:.9g}"
        )
    return SolveResult(
        inclusion=InclusionVector(values=values, committed=committed),
        utility=best_f,
        gap=best_gap,
        iterations=iterations,
        budget_used=spent,
        utility_trace=tuple(trace),
    )


def _bisect_step(dd, s: np.ndarray, delta: np.ndarray, step_max: float,
                 iters: int = 40) -> float:
    """Exact line search on [0, step_max]: the directional derivative of a
    concave utility is monotone decreasing, so bisect on its sign."""
    if dd(s, delta, 0.0) <= 0:
        return 0.0
    if dd(s, delta, step_max) >= 0:
        return step_max
    lo, hi = 0.0, step_max
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if dd(s, delta, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _away_step(
    dd,
    grad: np.ndarray,
    s: np.ndarray,
    d_full: np.ndarray,
    fw_delta: np.ndarray,
    fw_gap: float,
    vertices: list[np.ndarray],
    weights: list[float],
) -> np.ndarray:
    """One away-step Frank-Wolfe update, maintaining the active vertex set."""
    scores = [float(grad @ v) for v in vertices]
    ai = int(np.argmin(scores))
    away_gap = float(grad @ (s - vertices[ai]))

    if fw_gap >= away_gap:
        step = _bisect_step(dd, s, fw_delta, 1.0)
        for i in range(len(weights)):
            weights[i] *= 1.0 - step
        hit = next(
            (i for i, v in enumerate(vertices) if np.array_equal(v, d_full)), None
        )
        if hit is None:
            vertices.append(d_full)
            weights.append(step)
        else:
            weights[hit] += step
    else:
        delta = s - vertices[ai]
        w = weights[ai]
        step_max = w / (1.0 - w) if w < 1.0 else 1.0
        step = _bisect_step(dd, s, delta, step_max)
        for i in range(len(weights)):
            weights[i] *= 1.0 + step
        weights[ai] -= step

    keep = [i for i, w in enumerate(weights) if w > 1e-14]
    vertices[:] = [vertices[i] for i in keep]
    weights[:] = [weights[i] for i in keep]
    total = sum(weights)
    weights[:] = [w / total for w in weights]
    # rebuild the iterate from its decomposition: convex combinations of
    # feasible vertices stay feasible despite floating-point drift
    out = np.zeros_like(s)
    for w, v in zip(weights, vertices):
        out += w * v
    return out


def round_inclusion(
    ds: Dataset,
    s: InclusionVector,
    cm: CostModel,
    budget: float,
    rng: np.random.Generator,
) -> tuple[str, ...]:
    """Round a fractional inclusion vector to a feasible set of cluster ids.

    Visits unlocked clusters in a uniformly shuffled order and includes each
    with probability s_i. An inclusion that would push the cumulative cost
    over the budget is never made; the scan terminates at the first such
    violation, so the returned set always fits the budget.
    """
    if budget < 0:
        raise OptimizerError("budget must be non-negative")
    unlocked = np.flatnonzero(~s.committed)
    order = rng.permutation(unlocked)
    rem = float(budget)
    chosen: list[str] = []
    for j in order:
        p = float(s.values[j])
        if p <= 0.0:
            continue
        if p >= 1.0 or rng.random() < p:
            cost = cluster_cost(cm, ds.clusters[j])
            if cost <= rem:
                chosen.append(ds.clusters[j].cluster_id)
                rem -= cost
            else:
                break
    return tuple(sorted(chosen))


def save_solve_result(
    ds: Dataset,
    result: SolveResult,
    out_dir: str | Path,
    selected: tuple[str, ...] = (),
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    selected_set = set(selected)
    with (out / "inclusion.csv").open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["cluster_id", "probability", "committed", "selected_after_rounding"])
        for j, c in enumerate(ds.clusters):
            w.writerow(
                [
                    c.cluster_id,
                    repr(float(result.inclusion.values[j])),
                    int(bool(result.inclusion.committed[j])),
                    int(c.cluster_id in selected_set),
                ]
            )
    meta = {
        "gap": result.gap,
        "iterations": result.iterations,
        "utility": result.utility,
        "budget_used": result.budget_used,
    }
    (out / "solve_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
