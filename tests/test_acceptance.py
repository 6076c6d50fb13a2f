"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager

import numpy as np

from geosampler.data import CostModel, cluster_cost, expected_counts, set_cost
from geosampler.experiments import (
    ExperimentConfig,
    UtilityConfig,
    run_augmentation,
    run_cost_sweep,
    run_rank_study,
)
from geosampler.groups import GroupModel
from geosampler.learner import r2_score, ridge_fit_cv, ridge_solve, spearman_rho
from geosampler.optimizer import (
    SolveOptions,
    remaining_budget,
    round_inclusion,
    solve_relaxation,
)
from geosampler.samplers import greedy_size_augment, optimized_augment
from geosampler.synth import SynthConfig
from geosampler.utility import (
    UtilitySpec,
    aggregates,
    phi_gradient,
    utility_gradient_raw,
    utility_value,
)

from conftest import counts_from_dense, dense_groups
from test_optimizer import make_instance
from test_samplers import starter_state, survey_ds


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number} PASS: {label}")


# the synthetic task shared by the directional criteria: strong between-
# stratum coefficient dispersion on a 10-stratum map
TASK = SynthConfig(
    strata_grid=(5, 2),
    clusters_per_stratum=20,
    points_per_cluster=(25, 35),
    feature_dim=48,
    coef_dispersion=1.2,
    target_snr=15.0,
    test_fraction=0.3,
    seed=42,
)

SOLVER = SolveOptions(max_iters=2000, gap_tol=1e-7, step_rule="away")


def random_solver_instance(seed: int):
    """Random <= 15 unlocked-cluster instance; every third one is size-kind."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, 16))
    committed = tuple(f"c{i:02d}" for i in range(int(rng.integers(0, 3))))
    ds, cm, state, spec, counts = make_instance(
        n_clusters=m,
        committed=committed,
        seed=seed,
        budget=float(rng.uniform(0.2, 0.7)) * m * 10.0,
        groups=int(rng.integers(1, 6)),
        lam=float(rng.uniform(0.1, 0.9)),
    )
    if seed % 3 == 0:
        spec = UtilitySpec(kind="size")
        counts = expected_counts(ds, None, k=5)
    return ds, cm, state, spec, counts


def exhaustive_binary_best(ds, counts, cm, spec, state) -> float:
    """Vectorized enumeration of every binary feasible subset of the free
    clusters; independent of the solver path."""
    committed = np.zeros(ds.n_clusters, dtype=bool)
    committed[state.clusters] = True
    free = np.flatnonzero(ds.cluster_is_source & ~committed)
    budget = remaining_budget(ds, cm, state)
    costs = np.array([cluster_cost(cm, ds.cluster(ds.cluster_ids[j])) for j in free])

    mfree = len(free)
    assert mfree <= 15
    bits = ((np.arange(2 ** mfree)[:, None] >> np.arange(mfree)) & 1).astype(np.float64)
    feasible = bits @ costs <= budget + 1e-9

    e_free = counts.e[free]
    n0 = float(counts.e[committed].sum())
    n = n0 + bits @ e_free
    if spec.kind == "size":
        utilities = n
    else:
        e_group = dense_groups(counts)
        eg_free = e_group[free]
        n0g = e_group[committed].sum(axis=0)
        n_g = n0g + bits @ eg_free
        eps = spec.epsilon
        utilities = (
            -spec.lam * (spec.groups.gamma * (n_g + eps) ** -0.5).sum(axis=1)
            - (1 - spec.lam) * (n + eps) ** -0.5
        )
    return float(utilities[feasible].max())


def test_criterion_1_relaxation_optimality():
    with criterion(1, "relaxation dominates exhaustive binary search at gap <= 1e-6"):
        for seed in range(50):
            ds, cm, state, spec, counts = random_solver_instance(seed)
            t0 = time.perf_counter()
            res = solve_relaxation(ds, counts, cm, spec, state, SOLVER)
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.0, f"instance {seed} took {elapsed:.2f}s"
            assert res.gap <= 1e-6 * max(1.0, abs(res.utility)), (
                f"instance {seed}: relative gap {res.gap / max(1, abs(res.utility)):.2e}"
            )
            best = exhaustive_binary_best(ds, counts, cm, spec, state)
            assert res.utility >= best - 1e-9, (
                f"instance {seed}: continuous {res.utility:.12f} < binary {best:.12f}"
            )


def test_criterion_2_rounding_feasibility_and_fidelity():
    with criterion(2, "10^4 roundings all feasible; mean utility within 10% of optimum"):
        total = 0
        for inst in range(5):
            rng = np.random.default_rng(100 + inst)
            m = int(rng.integers(10, 16))
            ds, cm, state, spec, counts = make_instance(
                n_clusters=m,
                committed=("c00", "c01"),
                seed=100 + inst,
                budget=float(rng.uniform(0.3, 0.6)) * m * 10.0,
                groups=int(rng.integers(2, 6)),
                lam=0.5,
            )
            res = solve_relaxation(ds, counts, cm, spec, state, SOLVER)
            budget = cm.budget - state.spent
            committed_mask = res.inclusion.committed
            utilities = []
            for seed in range(2000):
                sel = round_inclusion(ds, res.inclusion, cm, budget,
                                      np.random.default_rng(seed))
                assert set_cost(cm, ds, ds.cluster_indices(sel)) <= budget + 1e-9
                values = committed_mask.astype(float)
                for cid in sel:
                    values[ds.cluster_index[cid]] = 1.0
                utilities.append(utility_value(values, counts, spec))
                total += 1
            mean_u = float(np.mean(utilities))
            rel = abs(mean_u - res.utility) / abs(res.utility)
            assert rel <= 0.10, f"instance {inst}: mean rounded utility off by {rel:.2%}"
        assert total == 10_000


def test_criterion_3_gradient_matches_finite_differences():
    with criterion(3, "group-rep gradient matches central differences to rel 1e-4"):
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(100):
            m = int(rng.integers(2, 9))
            G = int(rng.integers(1, 6))
            e = rng.integers(1, 21, size=m).astype(float)
            comp = rng.dirichlet(np.full(G, 1.0), size=m)
            eg = comp * e[:, None]
            gm = GroupModel(
                kind="admin",
                group_ids=tuple(f"g{i}" for i in range(G)),
                assignment=np.zeros(1, dtype=np.int64),
                gamma=rng.dirichlet(np.ones(G)),
            )
            spec = UtilitySpec(
                kind="group_rep",
                lam=float(rng.uniform(0.0, 1.0)),
                epsilon=float(10 ** rng.uniform(-5, -2)),
                groups=gm,
            )
            counts = counts_from_dense(e, eg)
            s = rng.uniform(0.1, 0.95, size=m)
            w = phi_gradient(aggregates(s, counts), spec)
            grad = utility_gradient_raw(w, counts)
            for i in range(m):
                up, dn = s.copy(), s.copy()
                up[i] += h
                dn[i] -= h
                fd = (
                    utility_value(up, counts, spec)
                    - utility_value(dn, counts, spec)
                ) / (2 * h)
                if abs(fd) > 1e-9:
                    assert abs(grad[i] - fd) <= 1e-4 * abs(fd)


def test_criterion_4_midpoint_concavity():
    with criterion(4, "midpoint concavity over 10^4 random feasible pairs"):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 10_000:
            m = int(rng.integers(2, 10))
            G = int(rng.integers(1, 6))
            e = rng.integers(0, 21, size=m).astype(float)
            eg = rng.dirichlet(np.ones(G), size=m) * e[:, None]
            gm = GroupModel(
                kind="admin",
                group_ids=tuple(f"g{i}" for i in range(G)),
                assignment=np.zeros(1, dtype=np.int64),
                gamma=rng.dirichlet(np.ones(G)),
            )
            spec = UtilitySpec(
                kind="group_rep",
                lam=float(rng.uniform(0, 1)),
                epsilon=1e-6,
                groups=gm,
            )
            counts = counts_from_dense(e, eg)
            for _ in range(50):
                s = rng.uniform(0, 1, size=m)
                t = rng.uniform(0, 1, size=m)
                u_mid = utility_value(0.5 * (s + t), counts, spec)
                u_s = utility_value(s, counts, spec)
                u_t = utility_value(t, counts, spec)
                assert u_mid >= 0.5 * u_s + 0.5 * u_t - 1e-9
                checked += 1


def test_criterion_5_size_optimization_matches_greedy():
    with criterion(5, "size optimization + rounding matches cheapest-first within 5%"):
        rng = np.random.default_rng(23)
        spec = UtilitySpec(kind="size")
        for trial in range(50):
            ds = survey_ds(
                n_strata=2,
                clusters_per_stratum=int(rng.integers(4, 8)),
                size_lo=12,
                size_hi=30,
                seed=500 + trial,
            )
            state = starter_state(ds, k=10, target=20, rng_seed=trial)
            cost = float(rng.integers(8, 40))
            budget = float(rng.uniform(1.2, 6.0)) * cost
            cm = CostModel(c1=cost, c2=cost, budget=budget)
            greedy = greedy_size_augment(ds, state, cm, np.random.default_rng(0))
            opt = optimized_augment(
                ds, state, cm, spec, np.random.default_rng(trial), SOLVER
            )
            u_greedy = float(greedy.n_labeled - state.n_labeled)
            u_opt = float(opt.n_labeled - state.n_labeled)
            if u_greedy == 0:
                assert u_opt == 0
            else:
                assert abs(u_opt - u_greedy) <= 0.05 * u_greedy, (
                    f"trial {trial}: optimized {u_opt} vs greedy {u_greedy}"
                )


def augmentation_config():
    return ExperimentConfig(
        synth=TASK,
        n_strata=2,
        k=10,
        initial_size=80,
        strata_seed=7,
        c1=25.0,
        c2=50.0,
        budgets=(200.0, 250.0, 300.0),
        baselines=("default",),
        utilities=(UtilityConfig(kind="group_rep", groups="admin", lam=0.5),),
        seeds=tuple(range(10)),
        step_rule="away",
        max_iters=800,
    )


def test_criterion_6_directional_augmentation_pattern(tmp_path):
    with criterion(6, "group-rep augmentation beats default clustering at 3 budgets"):
        t0 = time.perf_counter()
        cfg = augmentation_config()
        records = run_augmentation(cfg, tmp_path)
        for budget in cfg.budgets:
            default = {
                r["seed"]: r["r2"]
                for r in records
                if r["budget"] == budget and r["method"] == "default"
            }
            rep = {
                r["seed"]: r["r2"]
                for r in records
                if r["budget"] == budget and r["method"] == "rep-admin"
            }
            assert not any(
                r["infeasible"] for r in records if r["budget"] == budget
            )
            mean_default = np.mean(list(default.values()))
            mean_rep = np.mean(list(rep.values()))
            assert mean_rep >= mean_default, f"budget {budget}: means reversed"
            wins = sum(rep[s] > default[s] for s in cfg.seeds)
            assert wins >= 8, f"budget {budget}: only {wins}/10 paired wins"
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.0f}s"


def test_criterion_7_rank_study_pattern(tmp_path):
    with criterion(7, "utility rank correlations reproduce the qualitative pattern"):
        cfg = ExperimentConfig(
            synth=TASK,
            n_strata=10,
            k=10,
            initial_size=100,
            strata_seed=7,
            utilities=(UtilityConfig(kind="group_rep", groups="admin", lam=0.5),),
            rank_sizes=tuple(range(100, 1001, 100)),
            convenience_temperature=0.025,
            seeds=(0, 1, 2),
            step_rule="away",
        )
        records = run_rank_study(cfg, tmp_path)
        rep = np.array([r["u_rep-admin"] for r in records])
        r2 = np.array([r["r2"] for r in records])
        overall_rho = spearman_rho(rep, r2)
        assert overall_rho > 0.3, f"overall group-rep rho {overall_rho:.3f}"
        rand = [r for r in records if r["sampling_type"] == "random"]
        rho_size = spearman_rho(
            np.array([r["u_size"] for r in rand]), np.array([r["r2"] for r in rand])
        )
        assert rho_size > 0.7, f"random/size rho {rho_size:.3f}"


def test_criterion_8_cost_sweep_direction(tmp_path):
    with criterion(8, "gains non-increasing in the out-of-strata cost"):
        cfg = ExperimentConfig(
            synth=TASK,
            n_strata=2,
            k=10,
            initial_size=80,
            strata_seed=7,
            c1=25.0,
            c2=50.0,
            budgets=(250.0,),
            c2_sweep=(25.0, 30.0, 40.0, 50.0),
            baselines=("default", "random"),
            utilities=(UtilityConfig(kind="group_rep", groups="admin", lam=0.5),),
            seeds=tuple(range(10)),
            step_rule="away",
            max_iters=800,
        )
        records = run_cost_sweep(cfg, tmp_path)
        for method in ("random", "rep-admin"):   # the budget-bound methods
            means = [
                float(np.mean([
                    r["delta_r2"] for r in records
                    if r["method"] == method and r["c2"] == c2
                ]))
                for c2 in cfg.c2_sweep
            ]
            rho = spearman_rho(np.array(means), np.array(cfg.c2_sweep))
            assert rho <= 0, f"{method}: spearman of means vs c2 is {rho:.3f}"


def test_criterion_9_learner_correctness():
    with criterion(9, "ridge CV, hand ridge, r2 and spearman examples"):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 5))
        w_true = rng.normal(size=5)
        model = ridge_fit_cv(X, X @ w_true, seed=1)
        test = rng.normal(size=(500, 5))
        assert r2_score(test @ w_true, test @ model.weights + model.intercept) >= 0.99

        w, b = ridge_solve(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.0, 3.0]), 1.0)
        assert abs(w[0] - 2.0 / 3.0) <= 1e-12
        assert abs(b - 2.0 / 3.0) <= 1e-12

        assert r2_score(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 2.0])) == 0.5
        rho = spearman_rho(np.array([1.0, 2, 3, 4]), np.array([1.0, 3, 2, 4]))
        assert abs(rho - 0.8) <= 1e-12


def test_criterion_10_deterministic_experiment_outputs(tmp_path):
    with criterion(10, "experiment commands rerun byte-identically"):
        from geosampler.cli import main

        small = SynthConfig(
            strata_grid=(3, 2),
            clusters_per_stratum=6,
            points_per_cluster=(12, 18),
            feature_dim=4,
            coef_dispersion=1.0,
            target_snr=10.0,
            seed=31,
        )
        import json
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "synth": {
                "strata_grid": [3, 2], "clusters_per_stratum": 6,
                "points_per_cluster": [12, 18], "feature_dim": 4,
                "coef_dispersion": 1.0, "noise": 0.1, "feature_noise": 0.5,
                "feature_scale": 1.0, "target_snr": 10.0, "test_fraction": 0.2,
                "seed": 31,
            },
            "dataset": None,
            "n_strata": 2, "k": 8, "initial_size": 60, "strata_seed": 4,
            "budgets": [100.0], "seeds": [0, 1],
            "rank_sizes": [40, 80, 120],
            "initial_sizes": [40, 60],
        }))
        for command, files in [
            ("augment", ("runs.csv", "table.csv", "meta.json")),
            ("rank-study", ("samples.csv", "rho.csv", "meta.json")),
            ("size-sweep", ("size_runs.csv", "size_sweep.csv", "meta.json")),
        ]:
            outs = []
            for run in ("a", "b"):
                out = tmp_path / f"{command}-{run}"
                code = main([
                    command, "--seed", "0", "--out-dir", str(out),
                    "--config", str(cfg_file),
                    "--methods", "default,random,rep-admin",
                ])
                assert code == 0
                outs.append(out)
            for name in files:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                    f"{command}: {name} differs between reruns"
                )
