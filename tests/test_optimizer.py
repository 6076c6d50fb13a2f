import itertools
import json

import numpy as np
import pytest

from geosampler.data import CostModel, SampleState, expected_counts
from geosampler.groups import GroupModel
from geosampler.optimizer import (
    InfeasibleError,
    OptimizerError,
    SolveOptions,
    lmo_knapsack,
    round_inclusion,
    save_solve_result,
    solve_relaxation,
)
from geosampler.utility import InclusionVector, UtilitySpec, utility_value

from conftest import toy_dataset


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

    def test_locked_coordinates_returned_as_one_without_charge(self):
        grad = np.array([5.0, 1.0, 1.0])
        costs = np.array([10.0, 1.0, 1.0])
        locked = np.array([True, False, False])
        d = lmo_knapsack(grad, costs, budget=2.0, locked=locked)
        np.testing.assert_allclose(d, [1, 1, 1])

    def test_negative_budget_rejected(self):
        with pytest.raises(OptimizerError, match="budget"):
            lmo_knapsack(np.ones(2), np.ones(2), budget=-1.0)

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(OptimizerError, match="positive"):
            lmo_knapsack(np.ones(2), np.array([1.0, 0.0]), budget=1.0)


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
        initial_strata=frozenset({"s0"}),
    )
    committed = tuple(sorted(committed))
    labeled = {cid: ds.cluster(cid).point_ids[: min(5, sizes[cid])] for cid in committed}
    state = SampleState(
        initial_cluster_ids=committed,
        augment_cluster_ids=(),
        labeled_points=labeled,
        k=5,
        spent=0.0,
        initial_strata=frozenset({"s0"}),
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
    for cid in state.all_cluster_ids():
        committed[ds.cluster_index[cid]] = True
    free = np.flatnonzero(~committed)
    costs = np.array([cluster_cost(cm, ds.clusters[j]) for j in free])
    budget = remaining_budget(ds, cm, state)
    best = -np.inf
    for bits in itertools.product([0, 1], repeat=len(free)):
        sel = np.array(bits, dtype=float)
        if costs @ sel > budget + 1e-12:
            continue
        values = committed.astype(float)
        values[free] = sel
        u = utility_value(
            InclusionVector(values=values, committed=committed), counts, spec
        )
        best = max(best, u)
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

    def test_zero_budget_returns_committed_only(self):
        ds, cm, state, spec, counts = make_instance(
            committed=("c00", "c01"), seed=1, budget=0.0
        )
        res = solve_relaxation(ds, counts, cm, spec, state)
        committed_idx = [ds.cluster_index[c] for c in state.all_cluster_ids()]
        expect = np.zeros(ds.n_clusters)
        expect[committed_idx] = 1.0
        np.testing.assert_allclose(res.inclusion.values, expect)
        assert res.budget_used == 0.0

    def test_negative_remaining_budget_raises(self):
        ds, cm, state, spec, counts = make_instance(committed=("c00",), budget=5.0)
        state = SampleState(
            initial_cluster_ids=state.initial_cluster_ids,
            augment_cluster_ids=state.augment_cluster_ids,
            labeled_points=state.labeled_points,
            k=state.k,
            spent=10.0,
            initial_strata=state.initial_strata,
        )
        with pytest.raises(InfeasibleError):
            solve_relaxation(ds, counts, cm, spec, state)

    def test_degenerate_all_zero_gradient(self):
        ds, cm, state, _, _ = make_instance(committed=(), budget=50.0)
        spec = UtilitySpec(kind="size")
        counts = expected_counts(ds, None, k=5)
        zeroed = type(counts)(
            cluster_ids=counts.cluster_ids,
            e=np.zeros_like(counts.e),
            e_group=counts.e_group,
            k=counts.k,
        )
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


class TestRoundInclusion:
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
            u = utility_value(InclusionVector(values=values, committed=committed), counts, spec)
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
            assert set_cost(cm, ds, chosen) <= budget + 1e-12


def test_solve_result_serialization(tmp_path):
    ds, cm, state, spec, counts = make_instance(n_clusters=6, committed=("c00",), budget=30.0)
    res = solve_relaxation(ds, counts, cm, spec, state)
    chosen = round_inclusion(ds, res.inclusion, cm, 30.0, np.random.default_rng(0))
    save_solve_result(ds, res, tmp_path, selected=chosen)
    rows = (tmp_path / "inclusion.csv").read_text().strip().splitlines()
    assert rows[0] == "cluster_id,probability,committed,selected_after_rounding"
    assert len(rows) == 1 + ds.n_clusters
    meta = json.loads((tmp_path / "solve_meta.json").read_text())
    assert set(meta) == {"gap", "iterations", "utility", "budget_used"}
