"""Relaxed sample optimization: maximize a concave utility over the inclusion
polytope {0 <= s <= 1, cost(s) <= B', s = 1 on committed clusters}, then round
to a feasible cluster set.

The solver is Frank-Wolfe: each iteration linearizes the utility at the
current point and moves toward the vertex returned by a fractional-knapsack
linear maximization oracle. Termination is certified by the duality gap
grad(s) . (d - s), which upper-bounds the suboptimality of s for concave
utilities. The default step rule is ``away`` (away-step Frank-Wolfe, which
converges linearly here); ``line-search`` and ``diminishing`` (2/(t+2)) stay
selectable through :class:`SolveOptions`.

The utility depends on s only through its aggregates z = s @ A (see
:func:`geosampler.utility.aggregates`), and the loop never builds s. It
holds the iterate as a convex combination of the oracle vertices it has
visited, each stored once with its G + 1 aggregates (:class:`_Vertices`),
for every step rule. An iteration touches the clusters twice: the gradient
A @ grad phi(z) over the free clusters, and the knapsack oracle on it, which
sees only the free clusters, whose costs are gathered once per solve, and
sorts only the items that can enter its fill. The rest costs O(G + 1):
z, updated with each step, phi(z), the Frank-Wolfe gap grad phi(z) .
(z_d - z), the away gap and both line-search directions; the away scores
cost O(K (G + 1)) and the weights O(K) over the K stored vertices. A
keeps the group split as nonzero triples, so the gradient is O(nnz + m),
nnz = m for admin groups, and a new vertex's aggregates cost O(nnz) over its
support only. The line search works on the G + 1 aggregates: Newton, kept in
a sign bracket by bisection, solves for the root of the directional
derivative. s is built once per solve, for the best iterate; its value,
gradient, oracle vertex and gap are then recomputed from it, so the returned
gap certifies the returned vector (the aggregate gap only decides when to
stop, and ``converged`` reports the returned gap).
Rounding draws all its uniforms in one vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import CostModel, Dataset, SampleState, cluster_costs, set_cost, write_csv, write_json
from .utility import (
    ExpectedCounts,
    InclusionVector,
    UtilitySpec,
    aggregates,
    phi,
    phi_gradient,
    utility_gradient_raw,
)
# unused here; perfbench/tracer.py counts calls under this binding
from .utility import utility_value as utility_value_raw  # noqa: F401

STEP_RULES = ("diminishing", "line-search", "away")
# Newton iterations a line search may take (see _line_search); a solve-large
# line search takes 4 at the median and 6 at most
_NEWTON_ITERS = 30


class OptimizerError(ValueError):
    pass


class InfeasibleError(OptimizerError):
    """The remaining budget cannot accommodate the request."""


@dataclass(frozen=True)
class SolveOptions:
    """Solver controls.

    ``step_rule`` picks the iteration flavor. ``away``, the default, allows
    away steps over the active vertex set besides the Frank-Wolfe step, which
    removes the zigzag stall of plain iterations when the optimum mixes many
    vertices; it converges linearly on this polytope (Lacoste-Julien &
    Jaggi, NeurIPS 2015). ``line-search`` is plain Frank-Wolfe with an exact
    one-dimensional maximization as its step; ``diminishing`` is plain
    Frank-Wolfe with step 2/(t+2), which converges only sublinearly (Jaggi,
    ICML 2013) and stops at ``max_iters`` on the study problems. The exact
    step is the root of the directional derivative, which Newton's method
    finds at O(G) per evaluation: 5.9 evaluations per line search on
    solve-large, the two segment ends and 3.9 Newton iterations (see
    :func:`_line_search`). ``gap_tol`` must be positive and finite: an
    infinite tolerance would stop every solve after one iteration,
    certifying nothing.

    Every rule costs one gradient over the free clusters and one oracle call
    per iteration, plus O(K) over the K vertices the iterate has visited
    (O(K (G + 1)) for the away scores); the solve adds one more gradient and
    oracle call to certify the returned s.
    """

    max_iters: int = 500
    gap_tol: float = 1e-6          # relative to max(1, |U|)
    step_rule: str = "away"

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)):
            raise OptimizerError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise OptimizerError("max_iters must be >= 1")
        if not (0 < self.gap_tol < math.inf):
            raise OptimizerError(f"gap_tol must be positive and finite, got {self.gap_tol!r}")
        if self.step_rule not in STEP_RULES:
            raise OptimizerError(f"unknown step rule {self.step_rule!r}")


@dataclass(frozen=True)
class SolveResult:
    """A solve's best iterate s and its certificate. ``utility`` and ``gap``
    are recomputed from s itself, once the loop has stopped; the loop's own
    values, taken in aggregate space, are in ``utility_trace``.

    ``converged`` certifies the returned s, it does not say why the loop
    stopped. The loop stops when the gap it takes in aggregate space is
    within ``gap_tol``, and that gap and the returned one differ by
    rounding; so a solve that stops before ``max_iters`` with its gap at the
    tolerance can report False."""

    inclusion: InclusionVector
    utility: float           # U(s)
    gap: float               # duality gap grad(s) . (d - s) of the returned s
    iterations: int
    budget_used: float       # relaxed cost of the unlocked coordinates
    utility_trace: tuple[float, ...]
    step_rule: str
    converged: bool          # gap <= gap_tol * max(1, |utility|)
    active_set_size: int     # vertices in the away rule's final decomposition; 1 otherwise


def lmo_knapsack(grad: np.ndarray, costs: np.ndarray, budget: float) -> np.ndarray:
    """Maximize grad . d over {0 <= d <= 1, sum c_i d_i <= budget} via
    fractional knapsack. The solver passes the free clusters only, whose
    costs it gathers once per solve.

    Coordinates are filled to 1 in order of decreasing grad_i / c_i (ties to
    the lower index) until the budget binds; the last item may be fractional,
    so the output has at most one fractional coordinate.

    At most floor(budget / min c) items fill whole, and one more is
    fractional or overflows, so only the cap = floor(budget / min c) + 2
    largest ratios (plus any that tie the smallest of them) are selected by
    ``np.partition`` and sorted; that is the same prefix the full sort would
    give. A cap of n or more, including an infinite budget, sorts every item.
    """
    grad = np.asarray(grad, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    if not (budget >= 0):
        raise OptimizerError("budget must be non-negative")
    n = len(grad)
    d = np.zeros(n, dtype=np.float64)
    if n:
        c_min = costs.min()
        if not c_min > 0:     # a nan cost makes the minimum nan
            raise OptimizerError("costs must be positive for unlocked clusters")
        ratio = grad / costs
        cap = float(budget) // float(c_min) + 2   # nan for an infinite budget
        if cap < n:
            cut = n - int(cap)
            idx = np.flatnonzero(ratio >= np.partition(ratio, cut)[cut])
            ratio = ratio[idx]
        else:
            idx = np.arange(n)
        order = idx[np.lexsort((idx, -ratio))]
        nonpositive = grad[order] <= 0
        if nonpositive.any():
            order = order[: int(np.argmax(nonpositive))]
        c = costs[order]
        k, rem = affordable_prefix(c, budget)
        d[order[:k]] = 1.0
        if k < len(order) and rem > 0:
            d[order[k]] = rem / c[k]
    return d


def affordable_prefix(costs: np.ndarray, budget: float) -> tuple[int, float]:
    """What ``budget`` buys of ``costs`` taken in the given order: the number
    k of items bought before the first one that costs more than is left, and
    the budget left then. The costs are subtracted in order by one cumulative
    subtraction, so both equal a sequential loop's to the bit."""
    costs = np.asarray(costs, dtype=np.float64)
    # rem[i]: budget left before item i
    rem = np.subtract.accumulate(np.concatenate(([float(budget)], costs)))
    overflow = costs > rem[:-1]
    k = int(np.argmax(overflow)) if overflow.any() else len(costs)
    return k, float(rem[k])


def remaining_budget(ds: Dataset, cm: CostModel, state: SampleState) -> float:
    """Budget left for new clusters under the cost model's budget scope."""
    if cm.budget_scope == "augmentation":
        return cm.budget - state.spent
    return cm.budget - set_cost(cm, ds, state.clusters)


def bind_costs(cm: CostModel, state: SampleState) -> CostModel:
    """Price c1/c2 by the sample's initial strata unless the model is bound."""
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
    The loop holds the iterate as a convex combination of oracle vertices
    in aggregate space (see :class:`_Vertices`); s is built once, for the
    best iterate, and its value and gap are recomputed from it.
    """
    opts = opts or SolveOptions()
    cm = bind_costs(cm, state)
    budget = remaining_budget(ds, cm, state)
    if budget < 0:
        raise InfeasibleError(
            f"remaining budget is negative ({budget:.6g}); "
            f"scope={cm.budget_scope!r}, total={cm.budget:.6g}"
        )

    m = ds.n_clusters
    committed = np.zeros(m, dtype=bool)
    committed[state.clusters] = True
    # the decision variables that move: the unsampled source clusters
    free = np.flatnonzero(ds.cluster_is_source & ~committed)
    c_free = cluster_costs(cm, ds)[free]
    # the start point, 1 on the committed clusters: every oracle vertex
    # takes its committed part from it, exactly 1
    s0 = committed.astype(np.float64)
    free_counts = counts.restrict(free)
    vertices = _Vertices(aggregates(s0, counts), free_counts)

    trace: list[float] = []
    best_f, best_w = -np.inf, vertices.weights.copy()
    iterations = 0
    for t in range(opts.max_iters):
        iterations = t + 1
        z_free = vertices.z_free
        z = vertices.z0 + z_free
        f = phi(z, spec)
        grad_z = phi_gradient(z, spec)
        grad = utility_gradient_raw(grad_z, free_counts)
        trace.append(f)
        if t == 0 and budget > 0 and free.size and not np.any(grad > 0):
            raise OptimizerError("utility gradient vanishes on every candidate cluster")
        k = vertices.find(lmo_knapsack(grad, c_free, budget))
        w, Z = vertices.weights, vertices.Z
        fw_dz = Z[k] - z_free
        # grad . (d - s), taken in aggregate space: grad = A @ grad phi(z)
        gap = float(grad_z @ fw_dz)
        done = gap <= opts.gap_tol * max(1.0, abs(f))
        if f > best_f or done:
            best_f, best_w = f, w.copy()
        if done:
            break

        if opts.step_rule == "away":
            a = int(np.argmin(np.where(w > 0, Z @ grad_z, np.inf)))
            away_dz = z_free - Z[a]
            if float(grad_z @ away_dz) > gap:
                step_max = w[a] / (1.0 - w[a]) if w[a] < 1.0 else 1.0
                # a step away from vertex a is a negative step toward it
                vertices.move(a, -_line_search(z, away_dz, spec, step_max))
                continue
        if opts.step_rule == "diminishing":
            step = 2.0 / (t + 2.0)
        else:
            step = _line_search(z, fw_dz, spec, 1.0)
        vertices.move(k, step)

    # build s once, for the best iterate, and certify it: value, gradient,
    # oracle vertex and gap all come from s itself
    s_free = vertices.values(best_w)
    values = s0.copy()
    values[free] = s_free
    z = aggregates(values, counts)
    utility = phi(z, spec)
    grad = utility_gradient_raw(phi_gradient(z, spec), free_counts)
    gap = float(grad @ (lmo_knapsack(grad, c_free, budget) - s_free))
    spent = float(c_free @ s_free)
    if spent > budget * (1 + 1e-9) + 1e-12:
        raise OptimizerError(
            f"internal error: relaxed cost {spent:.9g} exceeds budget {budget:.9g}"
        )
    return SolveResult(
        inclusion=InclusionVector(values=values, committed=committed),
        utility=utility,
        gap=gap,
        iterations=iterations,
        budget_used=spent,
        utility_trace=tuple(trace),
        step_rule=opts.step_rule,
        converged=bool(gap <= opts.gap_tol * max(1.0, abs(utility))),
        active_set_size=(
            int(np.count_nonzero(vertices.weights)) if opts.step_rule == "away" else 1
        ),
    )


def _line_search(z: np.ndarray, dz: np.ndarray, spec: UtilitySpec, step_max: float) -> float:
    """Exact line search on [0, step_max] along s + t * delta, given the
    aggregates z = s @ A and dz = delta @ A. For a concave utility the
    directional derivative D(t) = grad phi(z + t dz) . dz decreases in t, so
    the step is 0 when D(0) <= 0, step_max when D(step_max) >= 0 (always so
    for ``size``, whose D is constant), and otherwise the root of D.

    The root. Split D = P - N: P(t) sums the terms with dz_j > 0 (positive,
    nonincreasing in t) and N(t) the magnitudes of those with dz_j < 0
    (nondecreasing). Newton runs on g = P^(-2/3) - N^(-2/3), which increases
    in t and is exactly linear when each side has one term, from t = 0. A
    step that leaves the interval where D changes sign, or a P, N or
    derivative that is not positive and finite, is replaced by a bisection
    of that interval. It stops once its step is below the band where
    rounding decides D's sign, (G + 1) unit roundoffs of P + N over |D'|,
    or an ulp of t. Each iteration costs O(G), as do the two end probes."""
    if not float(phi_gradient(z, spec) @ dz) > 0:
        return 0.0
    if not float(phi_gradient(z + step_max * dz, spec) @ dz) < 0:
        return step_max
    coef = np.append(spec.lam * 0.5 * spec.groups.gamma, (1.0 - spec.lam) * 0.5)
    order = np.argsort(-dz)                       # the terms with dz_j > 0 first
    cut = [0, int(np.count_nonzero(dz > 0))]      # np.add.reduceat: P, then -N
    zs, dzs = z[order] + spec.epsilon, dz[order]
    k = coef[order] * dzs
    rho = len(z) * 2.0 ** -53
    lo, hi, t = 0.0, step_max, 0.0                # D(lo) > 0 >= D(hi)
    for _ in range(_NEWTON_ITERS):
        base = zs + t * dzs
        terms = k * base ** -1.5
        p, n = np.add.reduceat(terms, cut).tolist()
        n = -n
        # -dP/dt / 1.5 and dN/dt / 1.5
        dp, dn = np.add.reduceat(terms * dzs / base, cut).tolist()
        if p > n:
            lo = t
        else:
            hi = t
        if not all(0 < v < math.inf for v in (p, n, dp, dn)):
            t = 0.5 * (lo + hi)
            continue
        gp, gn = p ** (-2 / 3), n ** (-2 / 3)
        # g'(t) = P^(-5/3) dp + N^(-5/3) dn
        step = (gp - gn) / (gp / p * dp + gn / n * dn)
        band = rho * (p + n) / (1.5 * (dp + dn)) + 2.0 ** -52 * t
        t -= step
        if abs(step) <= band:
            break
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
    return min(max(t, lo), hi)


class _Vertices:
    """The Frank-Wolfe iterate as a convex combination s = s0 + sum_k
    weights[k] v_k of oracle vertices v_k on the free clusters, held in
    aggregate space (for ``away``, its active set: Lacoste-Julien & Jaggi,
    NeurIPS 2015).

    Vertex k is stored once: as its sparse support ``support[k]`` (free
    cluster indices and values; an oracle vertex has at most one fractional
    coordinate and few nonzeros) and as its aggregates ``Z[k] = v_k @ A``
    on the free clusters, taken from the support's rows of the split alone.
    ``keys`` maps the bytes of a support, which ``support[k]`` views, to k:
    that finds a repeated vertex by hashing. A vertex that leaves the
    combination keeps its row at weight 0. The rows grow by doubling, with
    the number of distinct vertices.

    The iterate's aggregates are ``z0 + z_free``, with ``z_free = weights @
    Z`` updated by each :meth:`move` in O(G + 1) rather than recomputed:
    ``line-search`` and ``diminishing`` visit a new vertex almost every
    iteration, and a product over all K rows would make a solve O(T^2 G) in
    its T iterations. A move costs O(K) in the weights, and the away scores
    ``Z @ grad`` O(K (G + 1))."""

    def __init__(self, z0: np.ndarray, counts: ExpectedCounts):
        self.z0 = z0                  # the committed clusters' aggregates
        self.counts = counts          # restricted to the free clusters
        # the split's triples of free cluster j: count[j] of them from first[j]
        ptr = np.searchsorted(counts.rows, np.arange(len(counts.e) + 1))
        self.first, self.count = ptr[:-1], np.diff(ptr)
        self.keys: dict[bytes, int] = {}
        self.support: list[tuple[np.ndarray, np.ndarray]] = []
        self._Z = np.empty((8, len(z0)))
        self._weights = np.zeros(8)
        self.n = 0
        self.find(np.zeros(len(counts.e)))    # s0: no free cluster
        self._weights[0] = 1.0
        self.z_free = self._Z[0].copy()

    @property
    def weights(self) -> np.ndarray:
        return self._weights[: self.n]

    @property
    def Z(self) -> np.ndarray:
        return self._Z[: self.n]

    def find(self, v: np.ndarray) -> int:
        """The row of vertex ``v`` (dense on the free clusters), stored at
        weight 0 if it is new."""
        idx = np.flatnonzero(v > 0)      # an oracle vertex is nonnegative
        key = idx.tobytes() + v[idx].tobytes()
        k = self.keys.get(key)
        if k is not None:
            return k
        # the support is kept once, as views of its key
        idx = np.frombuffer(key, dtype=idx.dtype, count=len(idx))
        vals = np.frombuffer(key, dtype=np.float64, offset=idx.nbytes)
        k = self.n
        if k == len(self._weights):
            self._Z = np.concatenate((self._Z, np.empty_like(self._Z)))
            self._weights = np.concatenate((self._weights, np.zeros(k)))
        self._Z[k] = self._aggregates(idx, vals)
        self.keys[key] = k
        self.support.append((idx, vals))
        self.n += 1
        return k

    def _aggregates(self, idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """v @ A for the vertex v with support ``idx``, ``vals``: the
        support's triples of the split, then e."""
        c = self.counts
        z = np.empty(len(self.z0))
        z[-1] = c.e[idx] @ vals
        start, count = self.first[idx], self.count[idx]
        # the triples of each support row, in row order
        tri = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
        z[:-1] = np.bincount(c.cols[tri], weights=c.vals[tri] * np.repeat(vals, count),
                             minlength=c.n_groups)
        return z

    def move(self, k: int, step: float) -> None:
        """s + step (v_k - s); drop vanished vertices and renormalize. The
        aggregates follow each operation on the weights: scaled with them,
        less the rows dropped, over the same total."""
        w, z = self.weights, self.z_free
        w *= 1.0 - step
        w[k] += step
        z *= 1.0 - step
        z += step * self._Z[k]
        gone = np.flatnonzero((w <= 1e-14) & (w != 0.0))
        if gone.size:
            z -= w[gone] @ self._Z[gone]
            w[gone] = 0.0
        total = w.sum()
        w /= total
        z /= total

    def values(self, weights: np.ndarray) -> np.ndarray:
        """s on the free clusters for ``weights`` over the stored vertices;
        a sum over vertices in [0, 1] can pass 1 by a rounding, kept at 1."""
        ks = np.flatnonzero(weights)
        idx = [self.support[k][0] for k in ks]
        vals = np.concatenate([self.support[k][1] for k in ks])
        s = np.bincount(
            np.concatenate(idx), minlength=len(self.counts.e),
            weights=vals * np.repeat(weights[ks], [len(i) for i in idx]),
        )
        return np.minimum(s, 1.0)


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

    The uniforms for every visited cluster with 0 < s_i < 1 are drawn in one
    vector and the budget is scanned by :func:`affordable_prefix`. The
    generator is then rewound and advanced by exactly the draws the scan
    consumed (those before the stop, plus the stopping cluster's own), so it
    ends where a one-draw-per-visit loop would leave it.
    """
    if not (budget >= 0):
        raise OptimizerError("budget must be non-negative")
    unlocked = np.flatnonzero(~s.committed)
    order = rng.permutation(unlocked)
    # a zero-probability cluster draws no random number, so skipping it
    # leaves the rng stream unchanged
    order = order[s.values[order] > 0.0]
    p = s.values[order]
    draws = p < 1.0
    start = rng.bit_generator.state
    taken = ~draws
    taken[draws] = rng.random(int(draws.sum())) < p[draws]
    cand = np.flatnonzero(taken)
    k, _ = affordable_prefix(cluster_costs(cm, ds)[order[cand]], budget)
    if k < len(cand):
        rng.bit_generator.state = start
        rng.random(int(draws[: cand[k] + 1].sum()))
    return tuple(sorted(ds.cluster_ids[j] for j in order[cand[:k]]))


def save_solve_result(
    ds: Dataset,
    result: SolveResult,
    out_dir: str | Path,
    selected: tuple[str, ...] = (),
) -> None:
    out = Path(out_dir)
    selected_set = set(selected)
    inc = result.inclusion
    write_csv(
        out / "inclusion.csv",
        ["cluster_id", "probability", "committed", "selected_after_rounding"],
        ([cid, repr(float(inc.values[j])), int(bool(inc.committed[j])), int(cid in selected_set)]
         for j, cid in enumerate(ds.cluster_ids)),
    )
    meta = {
        "gap": result.gap,
        "iterations": result.iterations,
        "utility": result.utility,
        "budget_used": result.budget_used,
        "step_rule": result.step_rule,
        "converged": result.converged,
        "active_set_size": result.active_set_size,
    }
    write_json(out / "solve_meta.json", meta)
