import itertools
import json
import math

import numpy as np
import pytest

from geosampler import optimizer
from dataclasses import replace

from geosampler.data import CostModel, cluster_cost, expected_counts
from geosampler.groups import GroupModel
from geosampler.optimizer import (
    STEP_RULES,
    InfeasibleError,
    OptimizerError,
    SolveOptions,
    _line_search,
    affordable_prefix,
    lmo_knapsack,
    remaining_budget,
    round_inclusion,
    save_solve_result,
    solve_relaxation,
)
from geosampler.utility import (
    InclusionVector,
    UtilitySpec,
    aggregates,
    phi_gradient,
    utility_gradient_raw,
    utility_value,
)

from conftest import state_from_ids, toy_dataset


def brute_force_lmo(grad, costs, budget):
    """Enumerate all subset-plus-one-fractional solutions of the LP."""
    m = len(grad)
    best = 0.0
    for bits in itertools.product([0, 1], repeat=m):
        sel = np.array(bits, dtype=float)
        cost = float(costs @ sel)
        if cost > budget + 1e-12:
            continue
        value = float(grad @ sel)
        rem = budget - cost
        extra = 0.0
        for i in range(m):
            if bits[i] == 0 and grad[i] > 0:
                extra = max(extra, grad[i] * min(1.0, rem / costs[i]))
        best = max(best, value + extra)
    return best


class TestLmoKnapsack:
    def test_hand_example_full_items(self):
        grad = np.array([3.0, 1.0, 2.0])
        costs = np.array([1.0, 1.0, 2.0])
        d = lmo_knapsack(grad, costs, budget=2.0)
        np.testing.assert_allclose(d, [1, 1, 0])
        assert grad @ d == pytest.approx(brute_force_lmo(grad, costs, 2.0))
        assert grad @ d == 4.0

    def test_hand_example_fractional_tie_break(self):
        grad = np.array([3.0, 1.0, 2.0])
        costs = np.array([1.0, 1.0, 2.0])
        d = lmo_knapsack(grad, costs, budget=1.5)
        # ratio tie between coords 1 and 2 resolves to the lower index
        np.testing.assert_allclose(d, [1, 0.5, 0])
        assert grad @ d == pytest.approx(brute_force_lmo(grad, costs, 1.5))

    def test_loose_budget_fills_box(self):
        grad = np.array([0.5, 2.0, 1.0])
        costs = np.array([1.0, 3.0, 2.0])
        d = lmo_knapsack(grad, costs, budget=100.0)
        np.testing.assert_allclose(d, [1, 1, 1])

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            grad = rng.normal(0, 2, size=m)
            costs = rng.uniform(0.2, 3.0, size=m)
            budget = float(rng.uniform(0, costs.sum()))
            d = lmo_knapsack(grad, costs, budget)
            assert np.all(d >= 0) and np.all(d <= 1)
            assert costs @ d <= budget * (1 + 1e-9) + 1e-12
            assert grad @ d == pytest.approx(
                brute_force_lmo(grad, costs, budget), rel=1e-9, abs=1e-12
            )

    def test_at_most_one_fractional_coordinate(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            d = lmo_knapsack(
                rng.uniform(0, 3, size=m),
                rng.uniform(0.1, 2, size=m),
                float(rng.uniform(0, 6)),
            )
            fractional = np.sum((d > 1e-12) & (d < 1 - 1e-12))
            assert fractional <= 1

    def test_matches_sequential_fill_loop(self):
        def loop_lmo(grad, costs, budget, locked):
            # reference: the greedy fill, one coordinate at a time
            d = np.zeros(len(grad))
            d[locked] = 1.0
            idx = np.flatnonzero(~locked)
            ratio = grad[idx] / costs[idx]
            rem = float(budget)
            for i in idx[np.lexsort((idx, -ratio))]:
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

        rng = np.random.default_rng(17)
        for _ in range(300):
            m = int(rng.integers(1, 30))
            # coarse values make ratio ties and exact budget fits common
            grad = rng.integers(-2, 6, size=m) / 2.0
            costs = rng.integers(1, 5, size=m) * rng.choice([1.0, 0.1])
            locked = rng.uniform(size=m) < 0.2
            free = ~locked
            budget = float(rng.uniform(0, 1.2) * costs.sum())
            # the oracle on the free coordinates, as the solver calls it
            np.testing.assert_array_equal(
                lmo_knapsack(grad[free], costs[free], budget),
                loop_lmo(grad, costs, budget, locked)[free],
            )

    def test_negative_budget_rejected(self):
        with pytest.raises(OptimizerError, match="budget"):
            lmo_knapsack(np.ones(2), np.ones(2), budget=-1.0)

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(OptimizerError, match="positive"):
            lmo_knapsack(np.ones(2), np.array([1.0, 0.0]), budget=1.0)


def sequential_prefix(costs, budget):
    """What ``budget`` buys of ``costs`` in order, one item at a time."""
    rem, k = float(budget), 0
    for c in costs:
        if c > rem:
            break
        rem -= float(c)
        k += 1
    return k, rem


class TestAffordablePrefix:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_sequential_loop_to_the_bit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 12))
        # few distinct costs, so items repeat and budgets hit exact fits
        costs = rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, 25.0, 50.0], size=n)
        prefix = float(np.sum(costs[: int(rng.integers(0, n + 1))]))
        budgets = [0.0, -1.0, -0.0, math.inf, prefix, np.nextafter(prefix, -math.inf),
                   float(rng.uniform(0, costs.sum() + 1)), float(costs.sum())]
        for budget in budgets:
            k, rem = affordable_prefix(costs, budget)
            ref_k, ref_rem = sequential_prefix(costs, budget)
            assert k == ref_k, (costs, budget)
            assert isinstance(rem, float) and rem.hex() == ref_rem.hex(), (costs, budget)

    def test_empty_costs_buy_nothing(self):
        assert affordable_prefix(np.empty(0), 5.0) == (0, 5.0)
        assert affordable_prefix(np.empty(0), math.inf) == (0, math.inf)

    def test_stops_at_first_item_that_does_not_fit(self):
        # the third item would still fit after the second is skipped, but
        # the scan ends at the second
        assert affordable_prefix(np.array([2.0, 5.0, 1.0]), 4.0) == (1, 2.0)


def make_instance(
    n_clusters=8,
    committed=(),
    seed=0,
    sizes=None,
    overrides=None,
    budget=100.0,
    groups=2,
    lam=0.5,
):
    """Toy dataset + cost model + state + group-rep spec for solver tests."""
    rng = np.random.default_rng(seed)
    if sizes is None:
        sizes = {f"c{i:02d}": int(rng.integers(3, 15)) for i in range(n_clusters)}
    strata = {cid: "s0" for cid in sizes}
    ds = toy_dataset(sizes, strata, d=2, seed=seed, test_fraction=0.0)
    cm = CostModel(
        c1=10.0,
        c2=10.0,
        budget=budget,
        per_cluster_override=overrides,
        initial_strata=frozenset({0}),
    )
    committed = tuple(sorted(committed))
    labeled = {cid: ds.cluster(cid).point_ids[: min(5, sizes[cid])] for cid in committed}
    state = state_from_ids(
        ds,
        initial=committed,
        labeled=labeled,
        k=5,
        spent=0.0,
        initial_strata=frozenset({0}),
    )
    G = groups
    assignment = rng.integers(0, G, size=ds.n_points)
    gamma = np.bincount(assignment, minlength=G) / ds.n_points
    gm = GroupModel(
        kind="admin",
        group_ids=tuple(f"g{i}" for i in range(G)),
        assignment=assignment,
        gamma=gamma,
    )
    spec = UtilitySpec(kind="group_rep", lam=lam, epsilon=1e-6, groups=gm)
    counts = expected_counts(ds, gm, k=5)
    return ds, cm, state, spec, counts


def binary_best(ds, counts, cm, spec, state):
    """Exhaustive search over binary feasible subsets of the free clusters."""
    from geosampler.data import cluster_cost
    from geosampler.optimizer import remaining_budget

    committed = np.zeros(ds.n_clusters, dtype=bool)
    committed[state.clusters] = True
    free = np.flatnonzero(~committed)
    costs = np.array([cluster_cost(cm, ds.cluster(ds.cluster_ids[j])) for j in free])
    budget = remaining_budget(ds, cm, state)
    best = -np.inf
    for bits in itertools.product([0, 1], repeat=len(free)):
        sel = np.array(bits, dtype=float)
        if costs @ sel > budget + 1e-12:
            continue
        values = committed.astype(float)
        values[free] = sel
        best = max(best, utility_value(values, counts, spec))
    return best


class TestSolveRelaxation:
    def test_relaxation_dominates_exhaustive_binary(self):
        for seed in range(5):
            ds, cm, state, spec, counts = make_instance(
                n_clusters=10, committed=("c00",), seed=seed, budget=45.0
            )
            res = solve_relaxation(ds, counts, cm, spec, state, SolveOptions())
            best = binary_best(ds, counts, cm, spec, state)
            assert res.utility >= best - 1e-9
            assert res.gap <= 1e-6 * max(1.0, abs(res.utility))

    def test_size_utility_matches_greedy_value(self):
        # uniform per-cluster cost, budget for exactly three clusters
        sizes = {f"c{i}": 10 for i in range(6)}
        ds, cm, state, _, _ = make_instance(
            sizes=sizes, committed=(), seed=3, budget=30.0
        )
        spec = UtilitySpec(kind="size")
        counts = expected_counts(ds, None, k=5)
        res = solve_relaxation(ds, counts, cm, spec, state)
        # greedy value: three clusters at e = 5 each
        assert res.utility == pytest.approx(15.0, rel=1e-9)

    @pytest.mark.parametrize("rule", STEP_RULES)
    def test_zero_budget_returns_committed_only(self, rule):
        ds, cm, state, spec, counts = make_instance(
            committed=("c00", "c01"), seed=1, budget=0.0
        )
        res = solve_relaxation(ds, counts, cm, spec, state, SolveOptions(step_rule=rule))
        expect = np.zeros(ds.n_clusters)
        expect[state.clusters] = 1.0
        np.testing.assert_allclose(res.inclusion.values, expect)
        assert res.budget_used == 0.0

    @pytest.mark.parametrize("rule", STEP_RULES)
    def test_nothing_left_to_buy_returns_committed_only(self, rule):
        # every source cluster is already in the sample
        ds, cm, state, spec, counts = make_instance(
            n_clusters=6, committed=tuple(f"c{i:02d}" for i in range(6)), budget=100.0
        )
        res = solve_relaxation(ds, counts, cm, spec, state, SolveOptions(step_rule=rule))
        np.testing.assert_array_equal(res.inclusion.values, np.ones(ds.n_clusters))
        assert res.converged
        assert res.iterations == 1
        assert res.budget_used == 0.0
        assert res.step_rule == rule
        assert res.active_set_size == 1

    @pytest.mark.parametrize("rule", STEP_RULES)
    def test_one_gradient_and_one_oracle_call_per_iteration_and_the_certificate(
        self, rule, monkeypatch
    ):
        # each iteration takes one gradient over the free clusters and hands
        # it to the oracle with their costs, priced once per solve; the
        # certificate of the returned s takes one more
        gradients, oracle = [], []

        def counted_gradient(w, counts):
            gradients.append(len(counts.e))
            return utility_gradient_raw(w, counts)

        def counted_oracle(grad, costs, budget):
            oracle.append((len(grad), len(costs)))
            return lmo_knapsack(grad, costs, budget)

        monkeypatch.setattr(optimizer, "utility_gradient_raw", counted_gradient)
        monkeypatch.setattr(optimizer, "lmo_knapsack", counted_oracle)
        ds, cm, state, spec, counts = make_instance(
            n_clusters=12, committed=("c00",), seed=2, budget=55.0
        )
        free = ds.cluster_is_source.copy()
        free[state.clusters] = False
        n_free = int(free.sum())
        res = solve_relaxation(
            ds, counts, cm, spec, state,
            SolveOptions(max_iters=300, gap_tol=1e-9, step_rule=rule),
        )
        assert res.iterations > 1
        assert 0 < n_free < ds.n_clusters
        assert gradients == [n_free] * (res.iterations + 1)
        assert oracle == [(n_free, n_free)] * (res.iterations + 1)

    @pytest.mark.parametrize("rule", STEP_RULES)
    def test_aggregate_products_per_solve(self, rule, monkeypatch):
        # one m x (G+1) product for the committed start and one for the
        # certificate of the returned s, however many iterations run: the
        # loop takes the iterate's aggregates from its vertices'
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return aggregates(*args, **kwargs)

        monkeypatch.setattr(optimizer, "aggregates", counted)
        ds, cm, state, spec, counts = make_instance(
            n_clusters=12, committed=("c00",), seed=2, budget=55.0
        )
        per_solve = []
        for max_iters in (3, 300):
            calls.clear()
            res = solve_relaxation(
                ds, counts, cm, spec, state,
                SolveOptions(max_iters=max_iters, gap_tol=1e-9, step_rule=rule),
            )
            assert res.iterations > 2
            per_solve.append(len(calls))
        assert per_solve == [2, 2]

    @pytest.mark.parametrize("kind", ["group_rep", "size"])
    @pytest.mark.parametrize("rule", STEP_RULES)
    def test_vertex_scores_match_the_gradient(self, rule, kind, monkeypatch):
        # the loop scores vertex k as grad phi(z) . Z[k], with Z[k] = v_k @ A
        # taken from v_k's support; on the free clusters that is grad . v_k.
        # Both are sums of nonnegative terms, so they agree to a few ulps: 8
        # allowed, 3 the most seen over 40 random instances of up to 40
        # clusters and 5 groups
        stores = []

        class Recorded(optimizer._Vertices):
            def __init__(self, *args):
                super().__init__(*args)
                stores.append(self)

        monkeypatch.setattr(optimizer, "_Vertices", Recorded)
        ds, cm, state, spec, counts = make_instance(
            n_clusters=14, committed=("c00", "c03"), seed=5, budget=70.0, groups=3,
        )
        if kind == "size":
            spec, counts = UtilitySpec(kind="size"), expected_counts(ds, None, k=5)
        res = solve_relaxation(
            ds, counts, cm, spec, state,
            SolveOptions(max_iters=40, gap_tol=1e-12, step_rule=rule),
        )
        (store,) = stores
        # the size utility's gradient is e at every iterate: one oracle vertex
        assert store.n >= (3 if kind == "group_rep" else 2)
        free = ~res.inclusion.committed & ds.cluster_is_source
        z = aggregates(res.inclusion.values, counts)
        grad = utility_gradient_raw(phi_gradient(z, spec), counts)[free]
        scores = store.Z @ phi_gradient(z, spec)
        for k, (idx, vals) in enumerate(store.support):
            v = np.zeros(int(free.sum()))
            v[idx] = vals
            expect = float(grad @ v)
            assert abs(scores[k] - expect) <= 8 * np.spacing(expect)

    @pytest.mark.parametrize("rule", STEP_RULES)
    def test_iterate_aggregates_follow_the_weights(self, rule, monkeypatch):
        # the loop updates z with each step instead of recomputing weights @
        # Z over every stored vertex; after up to 400 steps, many of them to
        # new vertices, the two still agree to rounding (1.3e-15 of the
        # largest aggregate the most seen here, 1e-13 allowed)
        stores = []

        class Recorded(optimizer._Vertices):
            def __init__(self, *args):
                super().__init__(*args)
                stores.append(self)

        monkeypatch.setattr(optimizer, "_Vertices", Recorded)
        ds, cm, state, spec, counts = make_instance(
            n_clusters=80, committed=("c00", "c03"), seed=7, budget=300.0, groups=6,
        )
        res = solve_relaxation(
            ds, counts, cm, spec, state,
            SolveOptions(max_iters=400, gap_tol=1e-15, step_rule=rule),
        )
        (store,) = stores
        assert res.iterations > 30 and store.n > 30
        w = store.weights
        assert w.sum() == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(store.z_free, w @ store.Z, rtol=0,
                                   atol=1e-13 * np.abs(store.Z).max())

    @pytest.mark.parametrize("rule", STEP_RULES)
    def test_result_reports_rule_convergence_and_active_set(self, rule):
        ds, cm, state, spec, counts = make_instance(
            n_clusters=12, committed=("c00",), seed=2, budget=55.0
        )
        opts = SolveOptions(max_iters=50, gap_tol=1e-9, step_rule=rule)
        res = solve_relaxation(ds, counts, cm, spec, state, opts)
        assert res.step_rule == rule
        assert res.converged == (res.gap <= opts.gap_tol * max(1.0, abs(res.utility)))
        assert res.converged == (res.iterations < opts.max_iters)
        if rule == "away":
            assert 1 <= res.active_set_size <= res.iterations + 1
        else:
            assert res.active_set_size == 1

    def test_away_iterate_in_box_and_within_budget(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(6, 14))
            ds, cm, state, spec, counts = make_instance(
                n_clusters=n,
                committed=("c00",),
                seed=seed,
                budget=float(rng.uniform(10, 60)),
                overrides={f"c{i:02d}": float(rng.uniform(3, 20)) for i in range(n)},
                groups=int(rng.integers(1, 4)),
            )
            res = solve_relaxation(
                ds, counts, cm, spec, state,
                SolveOptions(max_iters=400, gap_tol=1e-9, step_rule="away"),
            )
            values = res.inclusion.values
            assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-12)
            free = ~res.inclusion.committed
            costs = np.array([cluster_cost(cm, ds.cluster(cid)) for cid in ds.cluster_ids])
            budget = remaining_budget(ds, cm, state)
            assert costs[free] @ values[free] <= budget * (1 + 1e-9) + 1e-12

    def test_negative_remaining_budget_raises(self):
        ds, cm, state, spec, counts = make_instance(committed=("c00",), budget=5.0)
        state = replace(state, spent=10.0)
        with pytest.raises(InfeasibleError):
            solve_relaxation(ds, counts, cm, spec, state)

    def test_degenerate_all_zero_gradient(self):
        ds, cm, state, _, _ = make_instance(committed=(), budget=50.0)
        spec = UtilitySpec(kind="size")
        counts = expected_counts(ds, None, k=5)
        zeroed = replace(counts, e=np.zeros_like(counts.e))
        with pytest.raises(OptimizerError, match="gradient"):
            solve_relaxation(ds, zeroed, cm, spec, state)

    def test_best_iterate_utility_non_decreasing(self):
        ds, cm, state, spec, counts = make_instance(
            n_clusters=12, committed=("c00",), seed=7, budget=55.0
        )
        res = solve_relaxation(ds, counts, cm, spec, state)
        best_so_far = np.maximum.accumulate(np.array(res.utility_trace))
        assert np.all(np.diff(best_so_far) >= -1e-12)

    def test_budget_respected_within_relative_tolerance(self):
        for seed in range(10):
            ds, cm, state, spec, counts = make_instance(
                n_clusters=9,
                committed=("c00",),
                seed=seed,
                budget=37.0,
                overrides={f"c{i:02d}": float(5 + 3 * i) for i in range(9)},
            )
            res = solve_relaxation(ds, counts, cm, spec, state)
            assert res.budget_used <= 37.0 * (1 + 1e-9)

    def test_line_search_reaches_tighter_gap(self):
        ds, cm, state, spec, counts = make_instance(
            n_clusters=12, committed=("c00",), seed=2, budget=55.0
        )
        res = solve_relaxation(
            ds, counts, cm, spec, state,
            SolveOptions(max_iters=2000, gap_tol=1e-12, step_rule="line-search"),
        )
        assert res.gap <= 1e-10 * max(1.0, abs(res.utility))


def _dense_bisect_step(counts, spec, s, delta, step_max, iters=40):
    """Reference line search on the full gradient in s."""

    def dd(t):
        z = aggregates(s + t * delta, counts)
        return float(utility_gradient_raw(phi_gradient(z, spec), counts) @ delta)

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


@pytest.mark.parametrize("kind", ["group_rep", "size"])
def test_aggregate_line_search_matches_dense_gradient(kind):
    rng = np.random.default_rng(31)
    interior = 0
    for seed in range(30):
        ds, cm, state, spec, counts = make_instance(
            n_clusters=10, seed=seed, groups=int(rng.integers(1, 5)),
            lam=float(rng.uniform(0, 1)),
        )
        if kind == "size":
            spec = UtilitySpec(kind="size")
        # a Frank-Wolfe direction at a random point of equal cost
        s = rng.uniform(0, 1, size=ds.n_clusters)
        costs = np.array([cluster_cost(cm, ds.cluster(cid)) for cid in ds.cluster_ids])
        w = phi_gradient(aggregates(s, counts), spec)
        grad = utility_gradient_raw(w, counts)
        delta = lmo_knapsack(grad, costs, float(costs @ s)) - s
        step_max = float(rng.choice([1.0, rng.uniform(0.1, 1.0)]))
        step = _line_search(
            aggregates(s, counts), aggregates(delta, counts), spec, step_max
        )
        expect = _dense_bisect_step(counts, spec, s, delta, step_max)
        assert step == pytest.approx(expect, abs=1e-12)
        interior += 0.0 < expect < step_max
    if kind == "group_rep":
        assert interior >= 5


class TestRoundInclusion:
    def test_matches_full_permutation_scan(self):
        def loop_round(ds, s, cm, budget, rng):
            # reference: scan every unlocked coordinate, skipping zeros in the loop
            order = rng.permutation(np.flatnonzero(~s.committed))
            rem = float(budget)
            chosen = []
            for j in order:
                p = float(s.values[j])
                if p <= 0.0:
                    continue
                if p >= 1.0 or rng.random() < p:
                    cost = cluster_cost(cm, ds.cluster(ds.cluster_ids[j]))
                    if cost <= rem:
                        chosen.append(ds.cluster_ids[j])
                        rem -= cost
                    else:
                        break
            return tuple(sorted(chosen))

        rng = np.random.default_rng(77)
        ds, cm, *_ = make_instance(
            n_clusters=14,
            seed=9,
            overrides={f"c{i:02d}": float(rng.uniform(3, 20)) for i in range(14)},
        )
        m = ds.n_clusters
        for seed in range(200):
            values = rng.uniform(0, 1, size=m)
            kind = rng.uniform(size=m)
            values[kind < 0.4] = 0.0
            values[kind > 0.85] = 1.0
            committed = rng.uniform(size=m) < 0.15
            values[committed] = 1.0
            s = InclusionVector(values=values, committed=committed)
            budget = float(rng.uniform(0, 120))
            new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert round_inclusion(ds, s, cm, budget, new_rng) == loop_round(
                ds, s, cm, budget, old_rng
            )
            # the rng stream is left where the old scan left it
            assert new_rng.random() == old_rng.random()

    def test_binary_vector_rounds_to_itself(self):
        ds, cm, state, spec, counts = make_instance(n_clusters=6, seed=4)
        committed = np.zeros(ds.n_clusters, dtype=bool)
        values = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        s = InclusionVector(values=values, committed=committed)
        for seed in range(20):
            chosen = round_inclusion(ds, s, cm, budget=100.0, rng=np.random.default_rng(seed))
            assert chosen == ("c00", "c02", "c04")

    def test_all_zero_rounds_to_empty(self):
        ds, cm, *_ = make_instance(n_clusters=4, seed=4)
        s = InclusionVector(
            values=np.zeros(ds.n_clusters), committed=np.zeros(ds.n_clusters, bool)
        )
        assert round_inclusion(ds, s, cm, 100.0, np.random.default_rng(0)) == ()

    def test_half_probabilities_monte_carlo(self):
        ds, cm, *_ = make_instance(n_clusters=8, seed=6)
        s = InclusionVector(
            values=np.full(ds.n_clusters, 0.5), committed=np.zeros(ds.n_clusters, bool)
        )
        hits = np.zeros(ds.n_clusters)
        trials = 10_000
        for seed in range(trials):
            chosen = round_inclusion(ds, s, cm, budget=1e9, rng=np.random.default_rng(seed))
            for cid in chosen:
                hits[ds.cluster_index[cid]] += 1
        freq = hits / trials
        assert np.all(np.abs(freq - 0.5) <= 0.02)

    def test_mean_rounded_utility_near_exhaustive_best(self):
        # every rounded set is itself a feasible binary subset, so its utility
        # is bounded by the exhaustive best; the mean over seeds must come
        # within 10% of that bound
        from geosampler.utility import utility_value

        ds, cm, state, spec, counts = make_instance(
            n_clusters=12, committed=("c00", "c01"), seed=21, budget=45.0
        )
        res = solve_relaxation(
            ds, counts, cm, spec, state,
            SolveOptions(max_iters=2000, gap_tol=1e-7, step_rule="away"),
        )
        best = binary_best(ds, counts, cm, spec, state)
        committed = res.inclusion.committed
        utilities = []
        for seed in range(200):
            sel = round_inclusion(ds, res.inclusion, cm, 45.0, np.random.default_rng(seed))
            values = committed.astype(float)
            for cid in sel:
                values[ds.cluster_index[cid]] = 1.0
            u = utility_value(values, counts, spec)
            assert u <= best + 1e-12
            utilities.append(u)
        mean_u = float(np.mean(utilities))
        assert abs(mean_u - best) <= 0.10 * abs(best)

    def test_budget_never_exceeded(self):
        rng = np.random.default_rng(8)
        ds, cm, *_ = make_instance(
            n_clusters=10,
            seed=8,
            overrides={f"c{i:02d}": float(rng.uniform(3, 20)) for i in range(10)},
        )
        from geosampler.data import cluster_cost, set_cost

        s = InclusionVector(
            values=rng.uniform(0, 1, size=ds.n_clusters),
            committed=np.zeros(ds.n_clusters, bool),
        )
        for seed in range(500):
            budget = float(rng.uniform(0, 60))
            chosen = round_inclusion(ds, s, cm, budget, np.random.default_rng(seed))
            assert set_cost(cm, ds, ds.cluster_indices(chosen)) <= budget + 1e-12


def test_solve_result_serialization(tmp_path):
    ds, cm, state, spec, counts = make_instance(n_clusters=6, committed=("c00",), budget=30.0)
    res = solve_relaxation(ds, counts, cm, spec, state)
    chosen = round_inclusion(ds, res.inclusion, cm, 30.0, np.random.default_rng(0))
    save_solve_result(ds, res, tmp_path, selected=chosen)
    rows = (tmp_path / "inclusion.csv").read_text().strip().splitlines()
    assert rows[0] == "cluster_id,probability,committed,selected_after_rounding"
    assert len(rows) == 1 + ds.n_clusters
    meta = json.loads((tmp_path / "solve_meta.json").read_text())
    assert set(meta) == {
        "gap", "iterations", "utility", "budget_used",
        "step_rule", "converged", "active_set_size",
    }
    assert meta["step_rule"] == SolveOptions.step_rule
    assert meta["converged"] is res.converged
    assert meta["active_set_size"] == res.active_set_size


@pytest.mark.parametrize("max_iters", [True, 2.5, "500", 0])
def test_solve_options_reject_a_non_integer_or_small_max_iters(max_iters):
    with pytest.raises(OptimizerError, match="max_iters must be"):
        SolveOptions(max_iters=max_iters)
    assert SolveOptions(max_iters=np.int64(3)).max_iters == 3
