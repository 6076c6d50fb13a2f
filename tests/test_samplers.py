import numpy as np
import pytest

from geosampler.data import CostModel, build_dataset, cluster_costs, set_cost
from geosampler.groups import admin_groups, feature_kmeans_groups
from geosampler.optimizer import SolveOptions
from geosampler.samplers import (
    ConvenienceConfig,
    SamplerConfig,
    SamplingError,
    convenience_sample,
    default_cluster_augment,
    draw_initial_sample,
    greedy_size_augment,
    optimized_augment,
    random_cluster_augment,
    random_point_sample,
    solve_and_augment,
)
from geosampler.synth import SynthConfig, generate
from geosampler.utility import UtilitySpec

from conftest import labeled_ids, toy_dataset


def survey_ds(n_strata=4, clusters_per_stratum=8, size_lo=25, size_hi=35, seed=0):
    rng = np.random.default_rng(seed)
    sizes, strata = {}, {}
    c = 0
    for s in range(n_strata):
        for _ in range(clusters_per_stratum):
            cid = f"c{c:03d}"
            sizes[cid] = int(rng.integers(size_lo, size_hi + 1))
            strata[cid] = f"s{s}"
            c += 1
    return toy_dataset(sizes, strata, d=3, seed=seed, test_fraction=0.0)


def ids(ds, clusters):
    return tuple(ds.cluster_ids[j] for j in clusters)


class TestInitialSample:
    def test_two_strata_survey_hits_point_target(self):
        # N=2, k=25, target 500 over clusters of >= 25 points: 20 clusters
        ds = survey_ds(n_strata=4, clusters_per_stratum=15, size_lo=25, size_hi=40)
        cfg = SamplerConfig(n_strata=2, k=25, initial_size=500, strata_seed=3)
        state = draw_initial_sample(ds, cfg, np.random.default_rng(0))
        assert state.n_labeled == 500
        assert len(state.initial) == 20
        labeled = labeled_ids(ds, state)
        assert all(len(labeled[cid]) == 25 for cid in ids(ds, state.initial))
        assert len(state.initial_strata) == 2

    def test_small_cluster_fully_labeled(self):
        ds = toy_dataset({"ca": 4, "cb": 30}, {"ca": "s0", "cb": "s0"}, seed=1)
        cfg = SamplerConfig(n_strata=1, k=10, initial_size=14, strata_seed=0)
        state = draw_initial_sample(ds, cfg, np.random.default_rng(5))
        assert state.n_labeled == 14
        assert len(labeled_ids(ds, state)["ca"]) == 4  # all points of the small cluster

    def test_final_cluster_trimmed_to_target(self):
        ds = survey_ds(n_strata=2, clusters_per_stratum=12, size_lo=30, size_hi=30)
        cfg = SamplerConfig(n_strata=2, k=25, initial_size=510, strata_seed=1)
        state = draw_initial_sample(ds, cfg, np.random.default_rng(2))
        assert state.n_labeled == 510
        sizes = sorted(len(v) for v in labeled_ids(ds, state).values())
        assert sizes[0] == 10 and all(s == 25 for s in sizes[1:])

    def test_strata_seed_fixes_strata_but_not_clusters(self):
        ds = survey_ds()
        cfg = SamplerConfig(n_strata=2, k=10, initial_size=120, strata_seed=9)
        a = draw_initial_sample(ds, cfg, np.random.default_rng(1))
        b = draw_initial_sample(ds, cfg, np.random.default_rng(2))
        assert a.initial_strata == b.initial_strata
        assert ids(ds, a.initial) != ids(ds, b.initial)

    def test_target_unreachable(self):
        ds = toy_dataset({"ca": 5}, {"ca": "s0"}, seed=2)
        cfg = SamplerConfig(n_strata=1, k=10, initial_size=50, strata_seed=0)
        with pytest.raises(SamplingError, match="unreachable"):
            draw_initial_sample(ds, cfg, np.random.default_rng(0))

    def test_pps_first_draw_proportional_to_size(self):
        ds = toy_dataset(
            {"ca": 10, "cb": 30, "cc": 60},
            {"ca": "s0", "cb": "s0", "cc": "s0"},
            seed=3,
        )
        cfg = SamplerConfig(n_strata=1, k=5, initial_size=5, strata_seed=0)
        first = {"ca": 0, "cb": 0, "cc": 0}
        trials = 4000
        for seed in range(trials):
            state = draw_initial_sample(ds, cfg, np.random.default_rng(seed))
            first[ids(ds, state.initial)[0]] += 1
        assert first["cc"] / trials == pytest.approx(0.6, abs=0.03)
        assert first["cb"] / trials == pytest.approx(0.3, abs=0.03)

    def test_within_cluster_labeling_is_uniform(self):
        ds = toy_dataset({"ca": 20}, {"ca": "s0"}, seed=4)
        cfg = SamplerConfig(n_strata=1, k=10, initial_size=10, strata_seed=0)
        hits = {pid: 0 for pid in ds.point_ids}
        trials = 10_000
        for seed in range(trials):
            state = draw_initial_sample(ds, cfg, np.random.default_rng(seed))
            for pid in labeled_ids(ds, state)["ca"]:
                hits[pid] += 1
        freqs = np.array([hits[pid] / trials for pid in ds.point_ids])
        assert np.all(np.abs(freqs - 0.5) <= 0.02)


def starter_state(ds, n_strata=1, k=10, target=30, strata_seed=0, rng_seed=0):
    cfg = SamplerConfig(n_strata=n_strata, k=k, initial_size=target, strata_seed=strata_seed)
    return draw_initial_sample(ds, cfg, np.random.default_rng(rng_seed))


class TestDefaultClusterAugment:
    def test_budget_below_cost_adds_nothing(self):
        ds = survey_ds(n_strata=2)
        state = starter_state(ds)
        cm = CostModel(c1=25, c2=50, budget=20.0)
        out = default_cluster_augment(ds, state, cm, np.random.default_rng(0))
        assert ids(ds, out.augment) == ()
        assert out.spent == 0.0

    def test_budget_of_three_units_adds_three(self):
        ds = survey_ds(n_strata=2)
        state = starter_state(ds)
        cm = CostModel(c1=25, c2=50, budget=75.0)
        out = default_cluster_augment(ds, state, cm, np.random.default_rng(0))
        assert len(out.augment) == 3
        assert out.spent == 75.0

    def test_stays_within_initial_strata(self):
        ds = survey_ds(n_strata=3)
        state = starter_state(ds)
        cm = CostModel(c1=25, c2=50, budget=200.0)
        out = default_cluster_augment(ds, state, cm, np.random.default_rng(1))
        for cid in ids(ds, out.augment):
            assert ds.cluster(cid).stratum in state.initial_strata

    def test_flagged_infeasible_when_strata_run_dry(self):
        ds = survey_ds(n_strata=2, clusters_per_stratum=3)
        state = starter_state(ds, target=20)
        cm = CostModel(c1=25, c2=50, budget=1000.0)
        out = default_cluster_augment(ds, state, cm, np.random.default_rng(0))
        assert out.infeasible
        assert out.spent < 1000.0

    def test_initial_sample_untouched(self):
        ds = survey_ds()
        state = starter_state(ds)
        cm = CostModel(c1=25, c2=50, budget=100.0)
        out = default_cluster_augment(ds, state, cm, np.random.default_rng(0))
        assert ids(ds, out.initial) == ids(ds, state.initial)
        assert set(out.initial).isdisjoint(out.augment)
        before, after = labeled_ids(ds, state), labeled_ids(ds, out)
        for cid in ids(ds, state.initial):
            assert after[cid] == before[cid]


class TestGreedySizeAugment:
    def test_cheap_strata_exhausted_first(self):
        ds = survey_ds(n_strata=2, clusters_per_stratum=4)
        state = starter_state(ds, target=20)
        cm = CostModel(c1=25, c2=50, budget=150.0)
        out = greedy_size_augment(ds, state, cm, np.random.default_rng(0))
        in_strata = [
            cid for cid in ids(ds, out.augment)
            if ds.cluster(cid).stratum in state.initial_strata
        ]
        # every unsampled in-strata cluster must be taken before any outside one
        unsampled_in = [
            c.cluster_id for c in map(ds.cluster, ds.cluster_ids)
            if c.stratum in state.initial_strata
            and c.cluster_id not in ids(ds, state.initial)
        ]
        assert sorted(in_strata) == sorted(unsampled_in)

    def test_budget_one_hundred_buys_four(self):
        ds = survey_ds(n_strata=2)
        state = starter_state(ds)
        cm = CostModel(c1=25, c2=50, budget=100.0)
        out = greedy_size_augment(ds, state, cm, np.random.default_rng(0))
        assert len(out.augment) == 4
        assert out.spent == 100.0

    def test_matches_size_optimization_plus_rounding(self):
        # uniform cost and uniform expected counts (all clusters >= k): the
        # relaxed size optimum after rounding buys exactly the same number of
        # cheapest-equivalent clusters as the greedy baseline
        rng = np.random.default_rng(11)
        for trial in range(10):
            ds = survey_ds(n_strata=2, clusters_per_stratum=5, seed=100 + trial)
            state = starter_state(ds, target=20, rng_seed=trial)
            cost = float(rng.integers(10, 31))
            budget = float(rng.uniform(40, 160))
            cm = CostModel(c1=cost, c2=cost, budget=budget)
            greedy = greedy_size_augment(ds, state, cm, np.random.default_rng(0))
            spec = UtilitySpec(kind="size")
            opt = optimized_augment(
                ds, state, cm, spec, np.random.default_rng(trial), SolveOptions()
            )
            n_candidates = ds.n_clusters - len(state.initial)
            assert len(opt.augment) == len(greedy.augment)
            assert len(greedy.augment) == min(int(budget // cost), n_candidates)
            u_opt = 10 * len(opt.augment)
            u_greedy = 10 * len(greedy.augment)
            assert u_opt == u_greedy
            # with an exact multiple of the cost there is no fractional tail
            # and the selected sets coincide as well
            cm3 = CostModel(c1=cost, c2=cost, budget=cost * 3)
            greedy3 = greedy_size_augment(ds, state, cm3, np.random.default_rng(0))
            opt3 = optimized_augment(
                ds, state, cm3, spec, np.random.default_rng(trial), SolveOptions()
            )
            assert set(opt3.augment) == set(greedy3.augment)


    @pytest.mark.parametrize("budget", [0.0, 24.0, 25.0, 75.0, 130.0, 175.0, 400.0, 5000.0])
    def test_picks_the_clusters_a_sequential_scan_picks(self, budget):
        # cheapest first (ties to larger min(k, size), then index), stopping
        # at the first cluster that no longer fits; 25 and 50 buy exact fits
        ds = survey_ds(n_strata=3, clusters_per_stratum=6, size_lo=5, size_hi=15)
        state = starter_state(ds, n_strata=1, k=10, target=30)
        cm = CostModel(c1=25, c2=50, budget=budget)
        costs = cluster_costs(cm.with_initial_strata(state.initial_strata), ds)
        cand = np.setdiff1d(np.arange(ds.n_clusters), state.initial)
        keyed = cand[np.lexsort((cand, -np.minimum(state.k, ds.cluster_sizes[cand]),
                                 costs[cand]))]
        rem, drawn = budget, []
        for j in keyed:
            if costs[j] > rem:
                break
            drawn.append(j)
            rem -= float(costs[j])
        out = greedy_size_augment(ds, state, cm, np.random.default_rng(0))
        assert out.augment.tolist() == sorted(drawn)
        assert out.spent <= budget

class TestRandomClusterAugment:
    def test_huge_budget_takes_everything(self):
        ds = survey_ds(n_strata=2, clusters_per_stratum=3)
        state = starter_state(ds, target=20)
        cm = CostModel(c1=25, c2=50, budget=1e6)
        out = random_cluster_augment(ds, state, cm, np.random.default_rng(0))
        assert len(out.clusters) == ds.n_clusters

    def test_zero_budget_none(self):
        ds = survey_ds()
        state = starter_state(ds)
        cm = CostModel(c1=25, c2=50, budget=0.0)
        out = random_cluster_augment(ds, state, cm, np.random.default_rng(0))
        assert ids(ds, out.augment) == ()

    def test_mean_residual_below_max_cluster_cost(self):
        ds = survey_ds(n_strata=2, clusters_per_stratum=6)
        state = starter_state(ds, target=20)
        budget = 280.0
        cm = CostModel(c1=25, c2=50, budget=budget)
        residuals = []
        for seed in range(1000):
            out = random_cluster_augment(ds, state, cm, np.random.default_rng(seed))
            assert out.spent <= budget
            residuals.append(budget - out.spent)
        assert np.mean(residuals) < 50.0   # max cluster cost


class TestOptimizedAugment:
    def test_unrepresented_cheap_group_always_selected(self):
        # one stratum-group unseen by the initial sample, reachable by one cluster
        sizes = {f"ca{i}": 20 for i in range(5)}
        strata = {cid: "s0" for cid in sizes}
        sizes["cb0"] = 20
        strata["cb0"] = "s1"
        ds = toy_dataset(sizes, strata, d=2, seed=13, test_fraction=0.0)
        cfg = SamplerConfig(n_strata=1, k=10, initial_size=30, strata_seed=1)
        state = draw_initial_sample(ds, cfg, np.random.default_rng(0))
        assert state.initial_strata == frozenset({0})
        gm = admin_groups(ds)
        spec = UtilitySpec(kind="group_rep", lam=0.5, epsilon=1e-6, groups=gm)
        cm = CostModel(c1=25, c2=25, budget=25.0)
        for seed in range(100):
            out = optimized_augment(ds, state, cm, spec, np.random.default_rng(seed))
            assert ids(ds, out.augment) == ("cb0",)

    def test_zero_budget_leaves_state_unchanged(self):
        ds = survey_ds()
        state = starter_state(ds)
        gm = admin_groups(ds)
        spec = UtilitySpec(kind="group_rep", lam=0.5, epsilon=1e-6, groups=gm)
        cm = CostModel(c1=25, c2=50, budget=0.0)
        out = optimized_augment(ds, state, cm, spec, np.random.default_rng(0))
        assert ids(ds, out.augment) == ()
        assert out.spent == state.spent
        assert labeled_ids(ds, out) == labeled_ids(ds, state)

    @pytest.mark.parametrize("method", ["rep-admin", "rep-feature", "opt-size"])
    @pytest.mark.parametrize("budget", ["zero", "below-cheapest", "above-all"])
    def test_default_solve_converges_at_the_budget_extremes(self, method, budget):
        # the default step rule certifies the relaxed optimum at each extreme;
        # rounding then buys nothing, nothing, and every candidate cluster
        ds = survey_ds(n_strata=3)
        state = starter_state(ds, n_strata=2, k=7, target=35)
        groups = {"rep-admin": admin_groups(ds),
                  "rep-feature": feature_kmeans_groups(ds, 3, seed=0)}.get(method)
        spec = UtilitySpec(kind="size" if groups is None else "group_rep", groups=groups)
        priced = CostModel(c1=25, c2=50, budget=0.0).with_initial_strata(state.initial_strata)
        free = np.setdiff1d(np.flatnonzero(ds.cluster_is_source), state.clusters)
        costs = cluster_costs(priced, ds)[free]
        amount, spend = {"zero": (0.0, 0.0), "below-cheapest": (0.5 * costs.min(), 0.0),
                         "above-all": (costs.sum() + 1.0, costs.sum())}[budget]
        cm = CostModel(c1=25, c2=50, budget=amount)
        out, result, _ = solve_and_augment(ds, state, cm, spec, np.random.default_rng(0))
        assert result.step_rule == SolveOptions.step_rule == "away"
        assert result.converged
        assert out.spent == spend
        if budget == "above-all":
            assert sorted(out.augment) == list(free)

    def test_spent_within_budget_and_k_respected(self):
        ds = survey_ds(n_strata=3)
        state = starter_state(ds, n_strata=2, k=7, target=35)
        gm = admin_groups(ds)
        spec = UtilitySpec(kind="group_rep", lam=0.5, epsilon=1e-6, groups=gm)
        cm = CostModel(c1=25, c2=50, budget=130.0)
        out = optimized_augment(ds, state, cm, spec, np.random.default_rng(3))
        assert out.spent <= 130.0
        cm_bound = cm.with_initial_strata(state.initial_strata)
        assert out.spent == pytest.approx(
            set_cost(cm_bound, ds, out.augment)
        )
        labeled = labeled_ids(ds, out)
        for cid in ids(ds, out.augment):
            assert len(labeled[cid]) <= min(7, len(ds.cluster(cid).point_ids))


class TestConvenienceSample:
    def anchored_ds(self, n=60, seed=5):
        return toy_dataset({f"c{i}": 6 for i in range(n // 6)},
                           {f"c{i}": "s0" for i in range(n // 6)},
                           seed=seed, test_fraction=0.0)

    def test_flat_temperature_approaches_uniform(self):
        ds = toy_dataset({"c0": 10}, {"c0": "s0"}, seed=6, test_fraction=0.0)
        cfg = ConvenienceConfig(anchors=((0.0, 0.0),), temperature=1e9, size=1)
        counts = np.zeros(10)
        trials = 10_000
        for seed in range(trials):
            state = convenience_sample(ds, cfg, np.random.default_rng(seed))
            counts[state.labeled[0]] += 1
        freq = counts / trials
        kl = float(np.sum(freq[freq > 0] * np.log(freq[freq > 0] * 10)))
        assert kl < 1e-3

    def test_tiny_temperature_selects_nearest(self):
        ds = self.anchored_ds()
        anchor = (float(ds.coords[0, 0]), float(ds.coords[0, 1]))
        cfg = ConvenienceConfig(anchors=(anchor,), temperature=1e-6, size=3)
        dists = np.sqrt(((ds.coords - np.array(anchor)) ** 2).sum(axis=1))
        nearest = {ds.point_ids[i] for i in np.argsort(dists)[:3]}
        for seed in range(25):
            state = convenience_sample(ds, cfg, np.random.default_rng(seed))
            assert {ds.point_ids[i] for i in state.labeled} == nearest

    def test_frequencies_match_softmax_weights(self):
        ds = toy_dataset({"c0": 12}, {"c0": "s0"}, seed=7, test_fraction=0.0)
        cfg = ConvenienceConfig(anchors=((2.0, 3.0),), temperature=0.5, size=1)
        d = np.sqrt(((ds.coords - np.array([2.0, 3.0])) ** 2).sum(axis=1))
        norm = (d - d.min()) / (d.max() - d.min())
        w = np.exp(-norm / 0.5)
        w /= w.sum()
        counts = np.zeros(12)
        trials = 10_000
        for seed in range(trials):
            state = convenience_sample(ds, cfg, np.random.default_rng(seed))
            counts[state.labeled[0]] += 1
        freq = counts / trials
        sigma = np.sqrt(w * (1 - w) / trials)
        assert np.all(np.abs(freq - w) <= 3 * sigma + 1e-12)

    @pytest.mark.parametrize("temperature", [0.0, float("nan")])
    def test_nonpositive_or_nan_temperature_rejected(self, temperature):
        with pytest.raises(SamplingError, match="temperature"):
            ConvenienceConfig(anchors=((0.0, 0.0),), temperature=temperature, size=1)

    def test_size_exceeding_population(self):
        ds = toy_dataset({"c0": 5}, {"c0": "s0"}, seed=8, test_fraction=0.0)
        cfg = ConvenienceConfig(anchors=((0.0, 0.0),), temperature=1.0, size=9)
        with pytest.raises(SamplingError, match="available"):
            convenience_sample(ds, cfg, np.random.default_rng(0))


def test_random_point_sample_shape_and_determinism(synth_ds):
    a = random_point_sample(synth_ds, 40, np.random.default_rng(4))
    b = random_point_sample(synth_ds, 40, np.random.default_rng(4))
    assert a.n_labeled == 40
    assert labeled_ids(synth_ds, a) == labeled_ids(synth_ds, b)
    assert sum(map(len, labeled_ids(synth_ds, a).values())) == a.n_labeled
    for cid, pids in labeled_ids(synth_ds, a).items():
        member = set(synth_ds.cluster(cid).point_ids)
        assert all(pid in member for pid in pids)


def unlabeled_points_ds(seed):
    """A synthetic population rebuilt with about 3% of its labels unknown."""
    ds, _ = generate(SynthConfig(strata_grid=(3, 2), clusters_per_stratum=8,
                                 points_per_cluster=(12, 20), feature_dim=4, seed=5))
    labels = ds.labels.copy()
    labels[np.random.default_rng(seed).random(ds.n_points) < 0.03] = np.nan
    return build_dataset(
        point_ids=ds.point_ids,
        coords=ds.coords,
        features=ds.features,
        labels=labels,
        point_cluster=[ds.cluster_ids[j] for j in ds.point_cluster],
        cluster_stratum={cid: ds.stratum_ids[s] for cid, s in zip(ds.cluster_ids, ds.cluster_stratum)},
        split_seed=ds.split_seed,
        test_fraction=ds.test_fraction,
    )


@pytest.mark.parametrize("seed", range(3))
def test_unlabeled_points_are_never_labeled(seed):
    ds = unlabeled_points_ds(seed)
    unknown = np.isnan(ds.labels)
    partly_unknown = np.bincount(ds.point_cluster[unknown], minlength=ds.n_clusters) > 0
    assert partly_unknown.any()
    # the split keeps unknown labels out of train, so source clusters are fully labeled
    assert not np.any(partly_unknown & ds.cluster_is_source)
    assert not np.any(unknown & (ds.train_mask | ds.test_mask))

    rng = np.random.default_rng(seed)
    state = starter_state(ds, n_strata=2, k=8, target=24, strata_seed=seed, rng_seed=seed)
    cm = CostModel(c1=25, c2=50, budget=400.0)
    spec = UtilitySpec(kind="group_rep", lam=0.5, epsilon=1e-6, groups=admin_groups(ds))
    anchors = tuple(map(tuple, ds.coords[:2].tolist()))
    samples = {
        "initial": state,
        "default": default_cluster_augment(ds, state, cm, rng),
        "greedy": greedy_size_augment(ds, state, cm, rng),
        "random": random_cluster_augment(ds, state, cm, rng),
        "optimized": optimized_augment(ds, state, cm, spec, rng),
        "convenience": convenience_sample(ds, ConvenienceConfig(anchors, 0.5, 60), rng),
        "random-point": random_point_sample(ds, 60, rng),
    }
    for name, sample in samples.items():
        assert sample.n_labeled > 0, name
        assert not unknown[sample.labeled].any(), name
        assert ds.cluster_is_source[sample.clusters].all(), name
    for name in ("default", "greedy", "random", "optimized"):
        assert len(samples[name].augment) > 0, name
