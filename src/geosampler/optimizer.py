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
:func:`geosampler.utility.aggregates`). Each iteration computes z once and
takes the value phi(z) and the gradient A @ grad phi(z) from it, so an
iteration costs two products with A for ``diminishing`` and three for
``line-search`` and ``away``, whose line search needs the aggregates of the
step direction as well. A keeps the group split as nonzero triples, so each
product is O(nnz + m), nnz = m for admin groups. The line search works on
the G + 1 aggregates: Newton locates the root of the directional
derivative, a forward error bound certifies a bracket around it, and the
bisection probes only inside that bracket, keeping plain bisection's bits.
The knapsack oracle sees only the free clusters, whose costs are gathered
once per solve, and sorts only the items that can enter its fill. The
``away`` rule's active set is packed incrementally, so an iteration does
only the work that changes with the iterate. Rounding draws all its uniforms
in one vector.
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
    utility_gradient_raw,
    # unused here; perfbench/tracer.py counts calls under this binding
    utility_value_raw,  # noqa: F401
)

STEP_RULES = ("diminishing", "line-search", "away")
# Newton iterations the line-search bracket may take (see _root_bracket); a
# solve-large line search takes 4 at the median and 6 at most
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
    step bisects the sign of the directional derivative 40 times, but probes
    it only inside a root bracket certified by a forward error bound (2.3
    probes per line search on solve-large instead of 42; see
    :func:`_bisect_step`). ``gap_tol`` must be positive and finite: an
    infinite tolerance would stop every solve after one iteration, certifying
    nothing.
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
    inclusion: InclusionVector
    utility: float
    gap: float               # duality gap at the returned iterate
    iterations: int
    budget_used: float       # relaxed cost of the unlocked coordinates
    utility_trace: tuple[float, ...]
    step_rule: str
    converged: bool          # gap <= gap_tol * max(1, |utility|), else max_iters hit
    active_set_size: int     # vertices in the final decomposition (1 unless away)


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
    are returned as 1 and charge nothing: the free ones solve the same
    problem on their own, d[free] = lmo_knapsack(grad[free], costs[free],
    budget). The solver gathers the free costs once per solve and calls
    without ``locked``.

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
    if locked is not None:
        locked = np.asarray(locked, dtype=bool)
        free = np.flatnonzero(~locked)
        out = locked.astype(np.float64)
        grad, costs = grad[free], costs[free]
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
        # rem[k]: budget left before item k, subtracted in fill order
        rem = np.subtract.accumulate(np.concatenate(([float(budget)], c)))
        overflow = c > rem[:-1]
        k = int(np.argmax(overflow)) if overflow.any() else len(order)
        d[order[:k]] = 1.0
        if k < len(order) and rem[k] > 0:
            d[order[k]] = rem[k] / c[k]
    if locked is None:
        return d
    out[free] = d
    return out


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

    s = s0.copy()
    active = _ActiveSet(s) if opts.step_rule == "away" else None

    trace: list[float] = []
    best_s, best_f, best_gap = s, -np.inf, np.inf
    iterations = 0
    # s is rebound by each step and never written in place once it may be
    # best_s, so best_s needs no copy
    for t in range(opts.max_iters):
        iterations = t + 1
        z = aggregates(s, counts, spec)
        f = phi(z, spec)
        grad = utility_gradient_raw(z, counts, spec)
        trace.append(f)
        grad_free = grad[free]
        if t == 0 and budget > 0 and free.size and not np.any(grad_free > 0):
            raise OptimizerError("utility gradient vanishes on every candidate cluster")
        d_full = s0.copy()
        d_full[free] = lmo_knapsack(grad_free, c_free, budget)
        fw_delta = d_full - s
        gap = float(grad @ fw_delta)
        if f > best_f:
            best_s, best_f, best_gap = s, f, gap
        if gap <= opts.gap_tol * max(1.0, abs(f)):
            best_s, best_f, best_gap = s, f, gap
            break

        if opts.step_rule == "diminishing":
            s = np.clip(s + (2.0 / (t + 2.0)) * fw_delta, 0.0, 1.0)
            s[committed] = 1.0
        elif opts.step_rule == "line-search":
            step = _bisect_step(z, aggregates(fw_delta, counts, spec), spec, 1.0)
            s = np.clip(s + step * fw_delta, 0.0, 1.0)
            s[committed] = 1.0
        else:
            s = _away_step(active, grad, s, z, d_full, fw_delta, gap, counts, spec)

    values = best_s
    spent = float(c_free @ values[free])
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
        step_rule=opts.step_rule,
        converged=bool(best_gap <= opts.gap_tol * max(1.0, abs(best_f))),
        active_set_size=len(active.idx) if active is not None else 1,
    )


def _bisect_step(z: np.ndarray, dz: np.ndarray, spec: UtilitySpec, step_max: float,
                 iters: int = 40) -> float:
    """Exact line search on [0, step_max] along s + t * delta, given the
    aggregates z = s @ A and dz = delta @ A: the directional derivative
    grad phi(z + t dz) . dz costs O(G) per probe, and for a concave utility it
    is monotone decreasing, so bisect on its sign.

    Each probe repeats :func:`phi_gradient`'s arithmetic operation for
    operation, with its coefficients taken once per call; the total term
    stays a scalar power, whose last bit can differ from numpy's array
    power, so that probe signs match the gradient's exactly.

    Only the halvings near the root need a probe. After the two endpoint
    probes, :func:`_root_bracket` certifies an interval [a, b] around the
    root: a midpoint at or below a moves ``lo`` and one at or above b moves
    ``hi`` without a probe, and a midpoint inside (a, b) is probed. So the
    step has the bits of plain bisection. A solve-large line search makes
    2.3 probes on average instead of 42, plus 4 Newton iterations and 2
    certificate sums that each cost about one probe."""
    if spec.kind == "size":
        def dd(t: float) -> float:   # phi is linear in n(s)
            return float(dz[0])
    else:
        eps = spec.epsilon
        coef_group = spec.lam * 0.5 * spec.groups.gamma
        coef_total = (1.0 - spec.lam) * 0.5
        w = np.empty(len(z))

        def dd(t: float) -> float:
            zt = z + t * dz
            w[:-1] = coef_group * (zt[:-1] + eps) ** -1.5
            w[-1] = coef_total * (zt[-1] + eps) ** -1.5
            return float(w @ dz)

    d0 = dd(0.0)
    if d0 <= 0:
        return 0.0
    d1 = dd(step_max)
    if d1 >= 0:
        return step_max
    a, b = 0.0, step_max
    # size's derivative is constant, so the endpoint probes settle it unless
    # it is nan; a nan or inf endpoint probe leaves the bisection unbracketed
    if spec.kind == "group_rep" and math.isfinite(d0) and math.isfinite(d1):
        coef = np.concatenate((coef_group, (coef_total,)))
        a, b = _root_bracket(z, dz, coef, eps, step_max)
    lo, hi = 0.0, step_max
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < b and dd(mid) > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _root_bracket(z: np.ndarray, dz: np.ndarray, coef: np.ndarray, eps: float,
                  step_max: float) -> tuple[float, float]:
    """An interval [a, b] in [0, step_max] such that :func:`_bisect_step`'s
    probe of D(t) = sum_j coef_j dz_j (z_j + eps + t dz_j)^-1.5 is > 0 at
    every t <= a and <= 0 at every t >= b. The caller has found both
    endpoint probes finite, D(0) > 0 > D(step_max), so D has terms of both
    signs. A side that fails to certify is left at 0 or step_max, which is
    plain bisection there.

    Locating the root. Split D = P - N: P(t) sums the terms with dz_j > 0
    (positive, nonincreasing in t) and N(t) the magnitudes of those with
    dz_j < 0 (nondecreasing). Newton runs on g = P^(-2/3) - N^(-2/3), which
    increases in t and is exactly linear when each side has one term,
    starting at t = 0 and kept inside the interval where g changes sign.
    It stops once its step is below the half-width h = 2 rho (P + N) / |D'|
    of the band where the certificate below cannot decide (h is at least
    16 ulps of t); then a = root - h and b = root + h.

    Certifying a side, in the standard model fl(x op y) = (x op y)(1 + d),
    |d| <= u = 2^-53 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, sections 2.2 and 3.1). A probe at t computes the
    bases b_j(t) = fl(fl(z_j + fl(t dz_j)) + eps), the weights w_j =
    fl(coef_j pi(b_j)) with pi numpy's power, and the dot fl(sum w_j dz_j).

    1. Rounding is monotone, so b_j(t) is nondecreasing in t when dz_j > 0
       and nonincreasing when dz_j < 0, bit for bit. However much z + t dz
       loses to cancellation when dz_j < 0, the bases the probe computes at
       a bound its bases at every t <= a, and those at b every t >= b.
    2. pi(x) = x^-1.5 (1 + k) with |k| <= 8u (4 ulps; numpy's array and
       scalar powers measure below one).
    3. A dot of n = G + 1 products, summed in any order, fused or not, is
       within gamma_n sum |w_j dz_j| of the exact sum, gamma_n = nu/(1-nu).
       So the probe is at least (1 - gamma_n) times its positive part minus
       (1 + gamma_n) times its negative part.

    By 1 and 2, for t <= a each positive product w_j dz_j of the probe is at
    least (1 - k)(1 - u) T_j, T_j = coef_j |dz_j| b_j(a)^-1.5, and each
    negative one at most (1 + k)(1 + u) T_j in magnitude. This function
    computes the T_j from the probe's own bases at a and sums each sign: P
    and N lie within k + 2u + gamma_n of the exact sums of the T_j over
    dz_j > 0 and over dz_j < 0. Hence the probe is > 0 on [0, a] if
    P (1 - rho) - N (1 + rho) > s, and, by the mirror argument, <= 0 on
    [b, step_max] if P (1 + rho) - N (1 - rho) < -s, for any rho >= 2 gamma_n
    + 2k + 3u + O(u^2). rho = (4n + 64) u holds that twice over, which also
    covers the rounding of the test itself. s = 2^-1070 (n + sum |dz_j|)
    absorbs gradual underflow, which the model leaves out (at most 2^-1075
    per rounding, times |dz_j| once a weight is multiplied). Overflow cannot
    occur: the endpoint probes are finite, so every weight is finite at 0
    and at step_max, and by 1 every base in between lies between the two."""
    n = len(z)
    rho = (4 * n + 64) * 2.0 ** -53
    order = np.argsort(-dz)                       # the terms with dz_j > 0 first
    n_pos = int(np.count_nonzero(dz > 0))
    zs, dzs, cs = z[order], dz[order], coef[order]
    cut = [0, n_pos]                              # np.add.reduceat: P, then -N
    slack = 2.0 ** -1070 * (n + float(np.abs(dz).sum()))

    def sums(t: float) -> list[float]:
        """P and -N at t, in the probe's operations."""
        return np.add.reduceat(cs * (zs + t * dzs + eps) ** -1.5 * dzs, cut).tolist()

    k = cs * dzs
    lo, hi = 0.0, step_max
    t = 0.0
    for _ in range(_NEWTON_ITERS):
        base = zs + t * dzs + eps
        terms = k * base ** -1.5
        p, m = np.add.reduceat(terms, cut).tolist()
        # -dP/dt / 1.5 and dN/dt / 1.5
        dp, dm = np.add.reduceat(terms * dzs / base, cut).tolist()
        if not (p > 0 > m and dp > 0 and dm > 0):
            return 0.0, step_max
        gp, gn = p ** (-2 / 3), (-m) ** (-2 / 3)
        # g'(t) = P^(-5/3) dp + N^(-5/3) dm
        step = (gp - gn) / (gp / p * dp - gn / m * dm)
        # the band the certificate cannot decide, rho (P + N) / |D'|, but no
        # less than 16 ulps of t: a base that cancels to near zero resolves
        # t no finer
        half = max(2.0 * rho * (p - m) / (1.5 * (dp + dm)), 2.0 ** -48 * t)
        if abs(step) <= 0.25 * half:
            t -= step
            break
        if gp < gn:
            lo = t
        else:
            hi = t
        t -= step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
    else:
        return 0.0, step_max

    a, b = max(t - half, 0.0), min(t + half, step_max)
    if a > 0.0:
        p, m = sums(a)
        if not p * (1 - rho) + m * (1 + rho) > slack:
            a = 0.0
    if b < step_max:
        p, m = sums(b)
        if not p * (1 + rho) + m * (1 - rho) < -slack:
            b = step_max
    return a, b


class _ActiveSet:
    """Convex decomposition s = sum_k weights[k] * v_k of the away-step
    iterate over LMO vertices (Lacoste-Julien & Jaggi, NeurIPS 2015).

    An LMO vertex has at most one fractional coordinate and few nonzeros, so
    vertex k is stored as its nonzero indices ``idx[k]`` and values
    ``vals[k]``; ``keys`` maps the bytes of that pair to k, which finds a
    repeated vertex by hashing.

    :meth:`scores` and :meth:`iterate` read the vertices packed in vertex
    order into flat arrays ``_idx``, ``_vals`` and ``_owner`` (the vertex of
    each entry). The packing is kept incrementally: :meth:`add` appends a
    new vertex's entries, and :meth:`prune` filters them only when a vertex
    vanished, renumbering the owners. The flat arrays always equal the
    concatenation of the vertices, so the bincounts add the same terms in
    the same order as a packing from scratch."""

    def __init__(self, s: np.ndarray):
        self.m = len(s)
        self.keys: dict[bytes, int] = {}
        self.idx: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []
        self.weights = np.zeros(0)
        self._idx = np.zeros(0, dtype=np.intp)
        self._vals = np.zeros(0)
        self._owner = np.zeros(0, dtype=np.intp)
        self.add(s, 1.0)
        self.prune()

    def add(self, v: np.ndarray, weight: float) -> None:
        idx = np.flatnonzero(v)
        vals = v[idx]
        key = idx.tobytes() + vals.tobytes()
        k = self.keys.get(key)
        if k is None:
            k = len(self.idx)
            self.keys[key] = k
            self.idx.append(idx)
            self.vals.append(vals)
            self.weights = np.append(self.weights, weight)
            self._idx = np.concatenate((self._idx, idx))
            self._vals = np.concatenate((self._vals, vals))
            self._owner = np.concatenate((self._owner, np.full(len(idx), k, dtype=np.intp)))
        else:
            self.weights[k] += weight

    def prune(self) -> None:
        """Drop vanished vertices and renormalize the weights."""
        keep = self.weights > 1e-14
        if not keep.all():
            kept = np.flatnonzero(keep)
            self.idx = [self.idx[k] for k in kept]
            self.vals = [self.vals[k] for k in kept]
            renumber = {int(old): new for new, old in enumerate(kept)}
            self.keys = {
                key: renumber[k] for key, k in self.keys.items() if k in renumber
            }
            entries = keep[self._owner]
            self._idx = self._idx[entries]
            self._vals = self._vals[entries]
            # a kept vertex's new number counts the kept vertices before it
            self._owner = (np.cumsum(keep) - 1)[self._owner[entries]]
        kept_weights = self.weights[keep]
        self.weights = kept_weights / kept_weights.sum()

    def scores(self, grad: np.ndarray) -> np.ndarray:
        """grad . v_k for every vertex k."""
        return np.bincount(
            self._owner, weights=grad[self._idx] * self._vals, minlength=len(self.idx)
        )

    def vertex(self, k: int) -> np.ndarray:
        v = np.zeros(self.m)
        v[self.idx[k]] = self.vals[k]
        return v

    def iterate(self) -> np.ndarray:
        """Rebuild the iterate from its decomposition: convex combinations of
        feasible vertices stay feasible despite floating-point drift."""
        return np.bincount(
            self._idx, weights=self._vals * self.weights[self._owner], minlength=self.m
        )


def _away_step(
    active: _ActiveSet,
    grad: np.ndarray,
    s: np.ndarray,
    z: np.ndarray,
    d_full: np.ndarray,
    fw_delta: np.ndarray,
    fw_gap: float,
    counts: ExpectedCounts,
    spec: UtilitySpec,
) -> np.ndarray:
    """One away-step Frank-Wolfe update, maintaining the active vertex set;
    z are the aggregates of s."""
    ai = int(np.argmin(active.scores(grad)))
    away_delta = s - active.vertex(ai)
    away_gap = float(grad @ away_delta)

    if fw_gap >= away_gap:
        step = _bisect_step(z, aggregates(fw_delta, counts, spec), spec, 1.0)
        active.weights *= 1.0 - step
        active.add(d_full, step)
    else:
        w = active.weights[ai]
        step_max = w / (1.0 - w) if w < 1.0 else 1.0
        step = _bisect_step(z, aggregates(away_delta, counts, spec), spec, step_max)
        active.weights *= 1.0 + step
        active.weights[ai] -= step
    active.prune()
    return active.iterate()


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
    vector and the budget is scanned with a cumulative subtraction. The
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
    c = cluster_costs(cm, ds)[order[cand]]
    # rem[k]: budget left before candidate k, subtracted in visiting order
    rem = np.subtract.accumulate(np.concatenate(([float(budget)], c)))
    overflow = c > rem[:-1]
    if overflow.any():
        k = int(np.argmax(overflow))
        rng.bit_generator.state = start
        rng.random(int(draws[: cand[k] + 1].sum()))
    else:
        k = len(cand)
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
