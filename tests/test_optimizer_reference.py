"""The solver, its knapsack oracle, line search and rounding against the
straightforward versions they replaced.

Each ``ref_*`` function (and ``RefActiveSet``) is the earlier implementation:
the iterate s held as a vector, with value and gradient recomputed from it on
every call, the knapsack oracle sorting every ratio, the line search probing
through ``phi_gradient``, and rounding drawing one uniform per visited
cluster. The oracle and rounding must give the same bits, and leave the
random generator at the same position. The line search solves for the root
that the reference bisects 64 times, so it must stop at the same end of the
segment, or within 1e-12 of the reference's step. The solver sums its
aggregates in another order, so it must take the same path (iterations and
active set) to the same values within 1e-12 relative, and return the gap
that its own s certifies.
"""

import warnings

import numpy as np
import pytest

from geosampler import optimizer
from geosampler.data import CostModel, SampleState, cluster_costs, expected_counts
from geosampler.groups import GroupModel, admin_groups
from geosampler.optimizer import (
    STEP_RULES,
    OptimizerError,
    SolveOptions,
    _Vertices,
    _line_search,
    bind_costs,
    lmo_knapsack,
    remaining_budget,
    round_inclusion,
    solve_relaxation,
)
from geosampler.synth import SynthConfig, generate
from geosampler.utility import (
    InclusionVector,
    UtilitySpec,
    aggregates,
    phi,
    phi_gradient,
    utility_gradient_raw,
    utility_value,
)

from conftest import dense_groups


def ref_utility_gradient_raw(values, counts, spec):
    w = phi_gradient(aggregates(values, counts), spec)
    grad = counts.e * w[-1]
    if spec.kind == "size":
        return grad
    return dense_groups(counts) @ w[:-1] + grad


def ref_lmo_knapsack(grad, costs, budget, locked=None):
    grad = np.asarray(grad, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    m = len(grad)
    if locked is None:
        locked = np.zeros(m, dtype=bool)
    d = np.zeros(m, dtype=np.float64)
    d[locked] = 1.0
    idx = np.flatnonzero(~locked)
    if idx.size == 0:
        return d
    ratio = grad[idx] / costs[idx]
    order = idx[np.lexsort((idx, -ratio))]
    nonpositive = grad[order] <= 0
    if nonpositive.any():
        order = order[: int(np.argmax(nonpositive))]
    c = costs[order]
    rem = np.subtract.accumulate(np.concatenate(([float(budget)], c)))
    overflow = c > rem[:-1]
    k = int(np.argmax(overflow)) if overflow.any() else len(order)
    d[order[:k]] = 1.0
    if k < len(order) and rem[k] > 0:
        d[order[k]] = rem[k] / c[k]
    return d


def ref_bisect_step(z, dz, spec, step_max, iters=64):
    def dd(t):
        return float(phi_gradient(z + t * dz, spec) @ dz)

    if dd(0.0) <= 0:
        return 0.0
    if dd(step_max) >= 0:
        return step_max
    lo, hi = 0.0, step_max
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if dd(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class RefActiveSet:
    def __init__(self, s):
        self.m = len(s)
        self.keys = {}
        self.idx = []
        self.vals = []
        self.weights = np.zeros(0)
        self.add(s, 1.0)
        self.prune()

    def add(self, v, weight):
        idx = np.flatnonzero(v)
        vals = v[idx]
        key = idx.tobytes() + vals.tobytes()
        k = self.keys.get(key)
        if k is None:
            self.keys[key] = len(self.idx)
            self.idx.append(idx)
            self.vals.append(vals)
            self.weights = np.append(self.weights, weight)
        else:
            self.weights[k] += weight

    def prune(self):
        keep = self.weights > 1e-14
        if not keep.all():
            kept = np.flatnonzero(keep)
            self.idx = [self.idx[k] for k in kept]
            self.vals = [self.vals[k] for k in kept]
            renumber = {int(old): new for new, old in enumerate(kept)}
            self.keys = {
                key: renumber[k] for key, k in self.keys.items() if k in renumber
            }
        kept_weights = self.weights[keep]
        self.weights = kept_weights / kept_weights.sum()
        self._idx = np.concatenate(self.idx)
        self._vals = np.concatenate(self.vals)
        self._owner = np.repeat(np.arange(len(self.idx)), [len(i) for i in self.idx])

    def scores(self, grad):
        return np.bincount(
            self._owner, weights=grad[self._idx] * self._vals, minlength=len(self.idx)
        )

    def vertex(self, k):
        v = np.zeros(self.m)
        v[self.idx[k]] = self.vals[k]
        return v

    def iterate(self):
        return np.bincount(
            self._idx, weights=self._vals * self.weights[self._owner], minlength=self.m
        )


def ref_away_step(active, grad, s, d_full, fw_delta, fw_gap, counts, spec):
    ai = int(np.argmin(active.scores(grad)))
    away_delta = s - active.vertex(ai)
    away_gap = float(grad @ away_delta)
    z = aggregates(s, counts)
    if fw_gap >= away_gap:
        step = ref_bisect_step(z, aggregates(fw_delta, counts), spec, 1.0)
        active.weights *= 1.0 - step
        active.add(d_full, step)
    else:
        w = active.weights[ai]
        step_max = w / (1.0 - w) if w < 1.0 else 1.0
        step = ref_bisect_step(z, aggregates(away_delta, counts), spec, step_max)
        active.weights *= 1.0 + step
        active.weights[ai] -= step
    active.prune()
    return active.iterate()


def ref_solve_relaxation(ds, counts, cm, spec, state, opts):
    """The earlier solver loop, returning (values, utility, gap, iterations,
    active-set size, utility trace)."""
    cm = bind_costs(cm, state)
    budget = remaining_budget(ds, cm, state)
    m = ds.n_clusters
    committed = np.zeros(m, dtype=bool)
    committed[state.clusters] = True
    available = ds.cluster_is_source & ~committed
    decision = np.flatnonzero(committed | available)
    locked_dec = committed[decision]
    costs_dec = cluster_costs(cm, ds)[decision]

    s = np.zeros(m, dtype=np.float64)
    s[committed] = 1.0
    active = RefActiveSet(s) if opts.step_rule == "away" else None
    trace = []
    best_s, best_f, best_gap = s.copy(), -np.inf, np.inf
    iterations = 0
    for t in range(opts.max_iters):
        iterations = t + 1
        f = utility_value(s, counts, spec)
        grad = ref_utility_gradient_raw(s, counts, spec)
        trace.append(f)
        d_dec = ref_lmo_knapsack(grad[decision], costs_dec, budget, locked_dec)
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
            step = ref_bisect_step(
                aggregates(s, counts), aggregates(fw_delta, counts), spec, 1.0
            )
            s = np.clip(s + step * fw_delta, 0.0, 1.0)
            s[committed] = 1.0
        else:
            s = ref_away_step(active, grad, s, d_full, fw_delta, gap, counts, spec)
    size = len(active.idx) if active is not None else 1
    return best_s, best_f, best_gap, iterations, size, tuple(trace)


def certified_gap(ds, counts, cm, spec, state, values):
    """grad(s) . (d - s) on the free clusters, recomputed from s: the gradient
    from s's aggregates, d the oracle's vertex for it."""
    cm = bind_costs(cm, state)
    committed = np.zeros(ds.n_clusters, dtype=bool)
    committed[state.clusters] = True
    free = np.flatnonzero(ds.cluster_is_source & ~committed)
    w = phi_gradient(aggregates(values, counts), spec)
    grad = utility_gradient_raw(w, counts)[free]
    d = lmo_knapsack(grad, cluster_costs(cm, ds)[free], remaining_budget(ds, cm, state))
    return float(grad @ (d - values[free]))


def _assert_matches_reference(ds, counts, cm, spec, state, opts):
    """Solve, and check the result against the earlier solver's; returns it."""
    res = solve_relaxation(ds, counts, cm, spec, state, opts)
    values, utility, _, iterations, size, trace = ref_solve_relaxation(
        ds, counts, cm, spec, state, opts
    )
    assert res.iterations == iterations
    assert res.active_set_size == size
    tol = 1e-12 * max(1.0, abs(utility))
    assert abs(res.utility - utility) <= tol
    assert len(res.utility_trace) == len(trace)
    assert np.all(np.abs(np.subtract(res.utility_trace, trace)) <= tol)
    assert np.all(np.abs(res.inclusion.values - values) <= tol)
    assert res.gap == certified_gap(ds, counts, cm, spec, state, res.inclusion.values)
    assert res.converged == (res.gap <= opts.gap_tol * max(1.0, abs(res.utility)))
    return res


def ref_round_inclusion(ds, s, cm, budget, rng):
    unlocked = np.flatnonzero(~s.committed)
    order = rng.permutation(unlocked)
    order = order[s.values[order] > 0.0]
    costs = cluster_costs(cm, ds)
    rem = float(budget)
    chosen = []
    for j in order:
        p = float(s.values[j])
        if p >= 1.0 or rng.random() < p:
            cost = float(costs[j])
            if cost <= rem:
                chosen.append(ds.cluster_ids[j])
                rem -= cost
            else:
                break
    return tuple(sorted(chosen))


# -- instances ---------------------------------------------------------------

@pytest.fixture(scope="module")
def ds():
    # 300 clusters, ~240 of them on the train side
    cfg = SynthConfig(
        strata_grid=(5, 4), clusters_per_stratum=15, points_per_cluster=(3, 12),
        feature_dim=2, seed=4,
    )
    return generate(cfg)[0]


def _utility(ds, which):
    if which == "size":
        return UtilitySpec(kind="size"), expected_counts(ds, None, k=5)
    if which == "group-per-cluster":
        gm = admin_groups(ds)
    else:
        # each point in its stratum's group or the next one: most clusters
        # span two groups, in shares that vary from cluster to cluster
        rng = np.random.default_rng(8)
        G = len(ds.stratum_ids)
        stratum = ds.cluster_stratum[ds.point_cluster]
        assignment = (stratum + rng.integers(0, 2, size=ds.n_points)) % G
        gm = GroupModel(
            kind="admin",
            group_ids=tuple(f"g{g}" for g in range(G)),
            assignment=assignment,
            gamma=np.bincount(assignment, minlength=G) / ds.n_points,
        )
    return UtilitySpec(kind="group_rep", lam=0.6, groups=gm), expected_counts(ds, gm, k=5)


def _state(ds, initial):
    initial = np.sort(np.asarray(initial, dtype=np.int64))
    return SampleState(
        initial=initial,
        augment=np.zeros(0, dtype=np.int64),
        labeled=np.zeros(0, dtype=np.int64),
        k=5,
        spent=0.0,
        initial_strata=frozenset(range(6)),
    )


def _case(ds, case):
    """(state, budget) for a named budget case; c1 = 10 inside the initial
    strata, c2 = 25 outside."""
    source = np.flatnonzero(ds.cluster_is_source)
    committed = source[::17]
    state = _state(ds, committed)
    cm = bind_costs(CostModel(c1=10.0, c2=25.0, budget=0.0), state)
    costs = cluster_costs(cm, ds)
    if case == "committed":
        return state, 300.0
    if case == "zero-budget":
        return state, 0.0
    if case == "nothing-to-buy":
        return _state(ds, source), 300.0
    if case == "budget-covers-all":
        return state, float(costs[source].sum()) + 5.0
    return state, np.inf


CASES = ("committed", "zero-budget", "nothing-to-buy", "budget-covers-all", "inf-budget")
UTILITIES = ("group-per-cluster", "multi-group", "size")


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("which", UTILITIES)
@pytest.mark.parametrize("rule", STEP_RULES)
def test_solve_matches_reference(ds, rule, which, case):
    spec, counts = _utility(ds, which)
    state, budget = _case(ds, case)
    cm = CostModel(c1=10.0, c2=25.0, budget=budget)
    opts = SolveOptions(max_iters=120, gap_tol=1e-9, step_rule=rule)
    _assert_matches_reference(ds, counts, cm, spec, state, opts)


def test_reference_instances_exercise_the_prefix_sort(ds):
    # the oracle's cap floor(budget / min cost) + 2 stays below the number of
    # unlocked items in the "committed" case, so its solves sort only a prefix
    state, budget = _case(ds, "committed")
    n_free = int(ds.cluster_is_source.sum()) - len(state.clusters)
    assert budget // 10.0 + 2 < n_free


# -- vertex store ------------------------------------------------------------

def test_vertex_store_follows_the_reference_active_set(ds):
    # the same steps on the store and on the earlier active set: the same
    # active vertices, weights and iterate within a few ulps, each vertex's
    # aggregates those of its dense vector, the iterate's aggregates those
    # of its weights, and a repeated vertex found by hashing, also after it
    # left the combination
    spec, counts = _utility(ds, "multi-group")
    state, _ = _case(ds, "committed")
    s0 = np.zeros(ds.n_clusters)
    s0[state.clusters] = 1.0
    free = np.flatnonzero(ds.cluster_is_source & (s0 == 0))
    free_counts = counts.restrict(free)
    store = _Vertices(aggregates(s0, counts), free_counts)
    ref = RefActiveSet(s0)
    m = len(free)

    def full(v):
        out = s0.copy()
        out[free] = v
        return out

    def check():
        w = store.weights
        assert np.count_nonzero(w) == len(ref.idx)
        # the active vertices in the reference's order: by their supports
        active = {store.support[k][0].tobytes() + store.support[k][1].tobytes(): k
                  for k in np.flatnonzero(w)}
        order = []
        for idx, vals in zip(ref.idx, ref.vals):
            keep = ~np.isin(idx, state.clusters)
            order.append(active[(np.searchsorted(free, idx[keep])).tobytes()
                                + vals[keep].tobytes()])
        np.testing.assert_allclose(w[order], ref.weights, rtol=4e-16, atol=0)
        np.testing.assert_allclose(full(store.values(w)), ref.iterate(), rtol=1e-15, atol=1e-16)
        for k, (idx, vals) in enumerate(store.support):
            v = np.zeros(m)
            v[idx] = vals
            np.testing.assert_allclose(store.Z[k], aggregates(v, free_counts),
                                       rtol=4e-16, atol=0)
        # updated with each move, summed in another order
        np.testing.assert_allclose(store.z_free, w @ store.Z, rtol=0,
                                   atol=1e-15 * np.abs(store.Z).max())

    def step(v=None, weight=0.0, drop=()):
        if v is not None:
            store.move(store.find(v), weight)
            ref.weights *= 1.0 - weight
            ref.add(full(v), weight)
            ref.prune()
        # each drop is an away step to its end, as ref_away_step takes it;
        # the last position first, so the earlier ones keep their place
        for j in sorted(drop, reverse=True):
            idx = ref.idx[j][~np.isin(ref.idx[j], state.clusters)]
            vals = ref.vals[j][~np.isin(ref.idx[j], state.clusters)]
            v_drop = np.zeros(m)
            v_drop[np.searchsorted(free, idx)] = vals
            k = store.find(v_drop)
            step_max = store.weights[k] / (1.0 - store.weights[k])
            store.move(k, -step_max)
            assert store.weights[k] == 0.0
            ref.weights *= 1.0 + step_max
            ref.weights[j] -= step_max
            ref.prune()
        check()

    def vertex(ones, frac=None):
        v = np.zeros(m)
        v[list(ones)] = 1.0
        if frac is not None:
            v[frac[0]] = frac[1]
        return v

    check()
    vertices = [
        vertex((0, 1, 5, 9), (12, 0.25)),
        vertex((3, 7), (20, 0.5)),
        vertex((7, 8, 30, 31, 32)),
        vertex((2, 40), (39, 0.125)),
        vertex((14, 15, 100)),
    ]
    step(vertices[0], 0.3)                      # a new vertex
    step(vertices[1], 0.2)
    step(vertices[0], 0.1)                      # a repeated vertex: a reweight only
    assert store.n == 3 and len(ref.idx) == 3
    step(vertices[2], 0.15)
    step(drop=(1,))                             # a middle vertex
    assert len(ref.idx) == 3
    step(vertices[3], 0.05)
    step(drop=(len(ref.idx) - 1,))              # the last vertex
    step(vertices[4], 0.4)
    step(vertices[3], 0.05)                     # back, in the row it had
    assert len(ref.idx) == 5 and store.n == 6
    step(drop=(0, 1, 2, 4))                     # all but one
    assert len(ref.idx) == 1
    step(vertices[1], 0.5)
    assert len(ref.idx) == 2 and store.n == 6


# -- knapsack oracle --------------------------------------------------------

def _assert_lmo_equal(grad, costs, budget, locked=None):
    """The oracle against the reference; with ``locked``, the oracle on the
    free coordinates, as the solver calls it, against the reference's
    entries there. Returns the reference's vector."""
    expect = ref_lmo_knapsack(grad, costs, budget, locked)
    free = np.arange(len(grad)) if locked is None else np.flatnonzero(~locked)
    got = lmo_knapsack(grad[free], costs[free], budget)
    assert got.tobytes() == expect[free].tobytes()
    return expect


@pytest.mark.parametrize("seed", range(6))
def test_lmo_matches_reference_with_ties_at_the_cut(seed):
    rng = np.random.default_rng(seed)
    n = 400
    grad = rng.integers(-1, 6, size=n).astype(np.float64)
    costs = rng.integers(1, 5, size=n).astype(np.float64)
    locked = rng.random(n) < 0.1
    for budget in (0.0, 1.0, 7.5, 37.0, 100.0, float(costs.sum()), np.inf):
        _assert_lmo_equal(grad, costs, budget)
        _assert_lmo_equal(grad, costs, budget, locked)
    # a single ratio everywhere: every item ties the cut
    _assert_lmo_equal(np.full(n, 3.0), np.full(n, 2.0), 21.0)


def test_lmo_matches_reference_on_continuous_ratios():
    rng = np.random.default_rng(11)
    n = 500
    grad = rng.exponential(size=n)
    costs = rng.uniform(5.0, 30.0, size=n)
    for budget in (0.0, 4.0, 60.0, 333.3, 5000.0, np.inf):
        d = _assert_lmo_equal(grad, costs, budget)
        assert costs @ d <= budget * (1 + 1e-12) or budget == np.inf


def test_lmo_with_no_positive_gradient_selects_nothing():
    rng = np.random.default_rng(3)
    n = 300
    grad = -rng.integers(0, 4, size=n).astype(np.float64)
    costs = rng.integers(1, 5, size=n).astype(np.float64)
    locked = np.zeros(n, dtype=bool)
    locked[:5] = True
    d = _assert_lmo_equal(grad, costs, 20.0, locked)
    np.testing.assert_array_equal(d, locked.astype(np.float64))
    # and no coordinate at all
    assert lmo_knapsack(np.zeros(0), np.zeros(0), 3.0).shape == (0,)


@pytest.mark.parametrize("budget", [np.nan, -1.0])
def test_lmo_rejects_invalid_budget(budget):
    with pytest.raises(OptimizerError, match="budget"):
        lmo_knapsack(np.ones(3), np.ones(3), budget)


# -- line search ------------------------------------------------------------

def _assert_exact_step(z, dz, spec, step_max):
    """The line search against the 64-halving reference bisection, which
    is exact to the last bits that the probe's sign resolves: the same end
    wherever the reference stops at one, within 1e-12 step_max of it
    elsewhere, and no lower a utility, but for 4 ulps. Returns the
    reference's step."""
    step = _line_search(z, dz, spec, step_max)
    expect = ref_bisect_step(z, dz, spec, step_max)
    assert 0.0 <= step <= step_max
    if expect in (0.0, step_max):
        assert step == expect
    assert abs(step - expect) <= 1e-12 * step_max
    f, f_ref = phi(z + step * dz, spec), phi(z + expect * dz, spec)
    assert f >= f_ref - 4 * np.spacing(abs(f_ref))
    return expect


@pytest.mark.parametrize("which", UTILITIES)
def test_line_search_matches_reference(ds, which):
    spec, counts = _utility(ds, which)
    rng = np.random.default_rng(21)
    interior = 0
    costs = rng.integers(5, 30, size=ds.n_clusters).astype(np.float64)
    for _ in range(40):
        # a Frank-Wolfe direction at a random point, to a vertex of equal cost
        s = rng.uniform(0, 1, size=ds.n_clusters) * (rng.random(ds.n_clusters) < 0.3)
        grad = ref_utility_gradient_raw(s, counts, spec)
        delta = ref_lmo_knapsack(grad, costs, float(costs @ s)) - s
        z, dz = aggregates(s, counts), aggregates(delta, counts)
        step_max = float(rng.choice([1.0, rng.uniform(0.05, 1.0)]))
        expect = _assert_exact_step(z, dz, spec, step_max)
        interior += 0.0 < expect < step_max
    if which != "size":
        assert interior >= 5


def test_line_search_matches_reference_at_a_one_group_root():
    # one group, and aggregates built so that the group and total terms of
    # the directional derivative cancel at a known interior root: P and N
    # have one term each, so Newton's g is linear in t
    gm = GroupModel(
        kind="admin", group_ids=("g0",), assignment=np.zeros(1, dtype=np.int64),
        gamma=np.ones(1),
    )
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = rng.uniform(0.1, 0.9)
        root = rng.uniform(60.0, 1000.0, size=2)
        dz = np.array([rng.uniform(0.5, 50.0), -rng.uniform(0.5, 50.0)])
        up, down = root ** -1.5 * np.abs(dz)
        spec = UtilitySpec(kind="group_rep", lam=float(down / (up + down)), groups=gm)
        z = root - t * dz
        assert 0.0 < _assert_exact_step(z, dz, spec, 1.0) < 1.0


# -- the solve-large regime: 100 admin groups ---------------------------------

@pytest.fixture(scope="module")
def ds100():
    # a 10 x 10 strata grid, so admin groups number 100 as in solve-large
    cfg = SynthConfig(
        strata_grid=(10, 10), clusters_per_stratum=5, points_per_cluster=(3, 8),
        feature_dim=2, seed=6,
    )
    return generate(cfg)[0]


def _problem100(ds100):
    """A 100-group problem whose few committed clusters leave most groups at
    zero count, so that early steps enter them (the eps singularity)."""
    gm = admin_groups(ds100)
    state = _state(ds100, np.flatnonzero(ds100.cluster_is_source)[::23])
    cm = CostModel(c1=10.0, c2=25.0, budget=400.0)
    spec = UtilitySpec(kind="group_rep", lam=0.5, groups=gm)
    return expected_counts(ds100, gm, k=5), cm, spec, state


@pytest.mark.parametrize("rule", ["line-search", "away"])
def test_solve_matches_reference_on_100_groups(ds100, rule):
    counts, cm, spec, state = _problem100(ds100)
    opts = SolveOptions(max_iters=120, gap_tol=1e-9, step_rule=rule)
    res = _assert_matches_reference(ds100, counts, cm, spec, state, opts)
    assert res.iterations == 120


@pytest.fixture(scope="module")
def line_searches100(ds100):
    """(z, dz, step_max) of every line search in a line-search and an away
    solve of the 100-group problem."""
    counts, cm, spec, state = _problem100(ds100)
    searches = []

    def record(z, dz, spec, step_max):
        searches.append((z.copy(), dz.copy(), step_max))
        return _line_search(z, dz, spec, step_max)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_line_search", record)
        for rule in ("line-search", "away"):
            opts = SolveOptions(max_iters=120, gap_tol=1e-9, step_rule=rule)
            solve_relaxation(ds100, counts, cm, spec, state, opts)
    return searches


def _spec100(ds100, variant):
    gm = admin_groups(ds100)
    if variant == "zero-share":
        # every fifth group weighs nothing in the utility
        gamma = gm.gamma.copy()
        gamma[::5] = 0.0
        gm = GroupModel(kind="admin", group_ids=gm.group_ids, assignment=gm.assignment,
                        gamma=gamma / gamma.sum())
        return UtilitySpec(kind="group_rep", lam=0.5, groups=gm)
    lam = {"lam-0": 0.0, "lam-0.5": 0.5, "lam-1": 1.0}[variant]
    return UtilitySpec(kind="group_rep", lam=lam, groups=gm)


@pytest.mark.parametrize("variant", ["lam-0.5", "lam-0", "lam-1", "zero-share"])
def test_line_search_matches_reference_on_100_groups(ds100, line_searches100, variant):
    spec = _spec100(ds100, variant)
    interior = at_zero = away = away_to_zero = 0
    for z, dz, step_max in line_searches100:
        if not 0.0 < _assert_exact_step(z, dz, spec, step_max) < step_max:
            continue
        interior += 1
        groups, dgroups = z[:-1], dz[:-1]
        at_zero += bool(np.any((groups == 0) & (dgroups > 0)))
        if step_max < 1.0:
            away += 1
            emptied = np.abs(groups + step_max * dgroups) <= 1e-9 * groups
            away_to_zero += bool(np.any((groups > 0) & emptied))
    if variant == "lam-0":
        # only the total term is left: its sign is one on the whole segment
        assert interior == 0
        return
    # the instance covers what the line search must handle: groups entered
    # from zero count (the eps singularity) and away steps that empty one
    assert interior >= 100
    assert at_zero >= 5 and away >= 5 and away_to_zero >= 1


def test_line_search_where_a_group_empties_near_the_root():
    # one large group that the direction empties at t = 1, and the root just
    # before that: z + t dz cancels to a few ulps of z there, so D resolves
    # t no finer than its own last bits
    gm = GroupModel(
        kind="admin", group_ids=("g0",), assignment=np.zeros(1, dtype=np.int64),
        gamma=np.ones(1),
    )
    rng = np.random.default_rng(7)
    for _ in range(100):
        z_group, left = 10 ** rng.uniform(6, 12), 10 ** rng.uniform(-7, -3)
        z = np.array([z_group, rng.uniform(1, 100)])
        dz = np.array([-z_group, rng.uniform(1, 100)])
        # lam that balances the two terms at the root t = 1 - left
        up = dz[1] * (z[1] + (1 - left) * dz[1] + 1e-6) ** -1.5
        down = z_group * (z_group * left + 1e-6) ** -1.5
        spec = UtilitySpec(kind="group_rep", lam=float(up / (up + down)), groups=gm)
        assert 0.0 < _assert_exact_step(z, dz, spec, 1.0) < 1.0


def _edge_searches(ds100):
    """name -> (z, dz, spec, step_max, expected step) where D keeps one sign
    on the whole segment, P or N being empty or of weight zero."""
    counts, _, spec, state = _problem100(ds100)
    s = np.zeros(ds100.n_clusters)
    s[state.clusters] = 1.0
    z = aggregates(s, counts)
    G = len(z) - 1
    up = np.append(np.linspace(1.0, 3.0, G), 2.0 * G)   # every aggregate grows
    # the groups grow while the total shrinks: the total term alone is N
    groups_up = np.append(up[:-1], -z[-1])
    size, size_z = UtilitySpec(kind="size"), np.array([float(z[-1])])
    zero = _spec100(ds100, "zero-share")
    weightless = zero.groups.gamma == 0.0
    # only the weightless groups shrink, or only they grow
    into_weightless = np.where(weightless, -0.5 * z[:-1], up[:-1])
    from_weightless = np.where(weightless, up[:-1], -0.5 * z[:-1])
    return {
        "size-up": (size_z, np.array([3.0]), size, 0.7, 0.7),
        "size-down": (size_z, np.array([-3.0]), size, 0.7, 0.0),
        "size-still": (size_z, np.zeros(1), size, 0.7, 0.0),
        "lam-0": (z, groups_up, _spec100(ds100, "lam-0"), 1.0, 0.0),
        "lam-1": (z, groups_up, _spec100(ds100, "lam-1"), 1.0, 1.0),
        "nothing-shrinks": (z, up, spec, 0.4, 0.4),
        "zero-share-shrink": (z, np.append(into_weightless, 0.0), zero, 1.0, 1.0),
        "zero-share-grow": (z, np.append(from_weightless, 0.0), zero, 1.0, 0.0),
    }


@pytest.mark.parametrize("case", [
    "size-up", "size-down", "size-still", "lam-0", "lam-1", "nothing-shrinks",
    "zero-share-shrink", "zero-share-grow",
])
def test_line_search_ends_where_the_derivative_keeps_its_sign(ds100, case):
    z, dz, spec, step_max, expect = _edge_searches(ds100)[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a RuntimeWarning fails, as in CI
        step = _line_search(z, dz, spec, step_max)
        assert ref_bisect_step(z, dz, spec, step_max) == expect
    assert step == expect


# -- rounding -----------------------------------------------------------------

GENERATORS = {
    "pcg64": lambda seed: np.random.default_rng(seed),
    "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
    "philox": lambda seed: np.random.Generator(np.random.Philox(seed)),
}


def _same_state(a, b):
    """Bit-generator states are nested dicts that may hold arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _rounding_case(ds, case, rng):
    """(inclusion vector, budget) for a named rounding case."""
    m = ds.n_clusters
    committed = np.zeros(m, dtype=bool)
    committed[::13] = True
    if case == "binary":
        values = (rng.random(m) < 0.3).astype(np.float64)
        budget = 400.0
    else:
        values = rng.uniform(0, 1, size=m) * (rng.random(m) < 0.7)
        values[rng.random(m) < 0.1] = 1.0
        budget = {"first-overflows": 5.0, "no-overflow": 1e9, "fractional": 400.0}[case]
    values[committed] = 1.0
    return InclusionVector(values=values, committed=committed), budget


@pytest.mark.parametrize("gen", sorted(GENERATORS))
@pytest.mark.parametrize("case", ["first-overflows", "binary", "no-overflow", "fractional"])
def test_round_inclusion_matches_reference_and_rng_position(ds, case, gen):
    state = _state(ds, [])
    cm = bind_costs(CostModel(c1=10.0, c2=25.0, budget=0.0), state)
    for seed in range(5):
        s, budget = _rounding_case(ds, case, np.random.default_rng([seed, 1]))
        rng, ref_rng = GENERATORS[gen](seed), GENERATORS[gen](seed)
        got = round_inclusion(ds, s, cm, budget, rng)
        expect = ref_round_inclusion(ds, s, cm, budget, ref_rng)
        assert got == expect
        if case == "first-overflows":
            assert got == ()
        assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
        assert rng.random() == ref_rng.random()


def test_round_inclusion_rejects_nan_budget(ds):
    state = _state(ds, [])
    cm = bind_costs(CostModel(c1=10.0, c2=25.0, budget=0.0), state)
    s, _ = _rounding_case(ds, "fractional", np.random.default_rng(0))
    with pytest.raises(OptimizerError, match="budget"):
        round_inclusion(ds, s, cm, np.nan, np.random.default_rng(0))
