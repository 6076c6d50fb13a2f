import json
import tracemalloc

import numpy as np
import pytest

from geosampler import learner
from geosampler.data import SampleState
from geosampler.learner import (
    DEFAULT_ALPHAS,
    LearnerError,
    _kmeanspp_init,
    _lloyd,
    average_ranks,
    evaluate_sample,
    kmeans_groups,
    predict,
    r2_score,
    ridge_fit_cv,
    ridge_solve,
    save_model,
    spearman_rho,
)
from geosampler.synth import SynthConfig, generate


class TestRidge:
    def test_hand_one_dimensional_example(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 3.0])
        w, b = ridge_solve(X, y, alpha=1.0)
        assert w[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert b == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_noiseless_recovery_picks_smallest_alpha(self):
        rng = np.random.default_rng(0)
        n, d = 200, 5
        X = rng.normal(size=(n, d))
        w_true = rng.normal(size=d)
        y = X @ w_true
        model = ridge_fit_cv(X, y, seed=1)
        assert model.alpha == pytest.approx(1e-5)
        assert np.linalg.norm(model.weights - w_true) <= 1e-3 * np.linalg.norm(w_true)

    def test_predictions_shrink_toward_mean_as_alpha_grows(self):
        rng = np.random.default_rng(2)
        n, d = 60, 3
        X = rng.normal(size=(n, d))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=n)
        dev = []
        for alpha in [1e-2, 1e0, 1e2, 1e4, 1e5]:
            w, b = ridge_solve(X, y, alpha)
            pred = X @ w + b
            dev.append(float(np.mean(np.abs(pred - y.mean()))))
        assert all(d2 < d1 + 1e-12 for d1, d2 in zip(dev, dev[1:]))

    def test_stationarity_residual(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        model = ridge_fit_cv(X, y, seed=0)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        lhs = (Xc.T @ Xc + model.alpha * np.eye(4)) @ model.weights
        rhs = Xc.T @ yc
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    @staticmethod
    def replay_cv_table(X, y, seed, folds=5):
        """Mean validation MSE per grid alpha from one ridge_solve per (fold, alpha)."""
        n = len(y)
        perm = np.random.default_rng(seed).permutation(n)
        table = []
        for alpha in sorted(DEFAULT_ALPHAS):
            acc = 0.0
            for fold_rows in np.array_split(perm, folds):
                val = np.zeros(n, dtype=bool)
                val[fold_rows] = True
                w, b = ridge_solve(X[~val], y[~val], alpha)
                acc += float(np.mean((X[val] @ w + b - y[val]) ** 2)) / folds
            table.append((float(alpha), acc))
        return tuple(table)

    def test_cv_table_consistency_replay(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 2))
        y = X @ np.array([1.0, 2.0]) + 0.3 * rng.normal(size=30)
        model = ridge_fit_cv(X, y, seed=7)
        # the shared per-fold Gram matrix does ridge_solve's arithmetic exactly
        assert model.cv_table == self.replay_cv_table(X, y, seed=7)

    @pytest.mark.parametrize("n, d", [(8, 12), (6, 48), (40, 48)])
    def test_degenerate_folds_replay_exactly(self, n, d):
        # d at or above the training-fold size: Xc'Xc is singular, only alpha I
        # makes the fold systems solvable
        rng = np.random.default_rng(n * d)
        X = rng.normal(size=(n, d))
        y = X[:, 0] + 0.1 * rng.normal(size=n)
        model = ridge_fit_cv(X, y, seed=3)
        table = self.replay_cv_table(X, y, seed=3)
        assert model.cv_table == table
        assert all(np.isfinite(m) for _, m in table)
        assert model.alpha == min(table, key=lambda row: row[1])[0]
        w, b = ridge_solve(X, y, model.alpha)
        np.testing.assert_array_equal(model.weights, w)
        assert model.intercept == b

    def test_too_few_rows(self):
        with pytest.raises(LearnerError, match="5-fold"):
            ridge_fit_cv(np.ones((3, 2)), np.array([1.0, 2.0, 3.0]))

    def test_zero_variance_labels(self):
        with pytest.raises(LearnerError, match="variance"):
            ridge_fit_cv(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10))

    def test_alpha_from_grid(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        model = ridge_fit_cv(X, y, seed=0)
        assert model.alpha in {a for a, _ in model.cv_table}

    def test_model_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        model = ridge_fit_cv(X, y, seed=0)
        save_model(model, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        assert doc == {
            "alpha": model.alpha,
            "intercept": model.intercept,
            "weights": model.weights.tolist(),
            "cv_table": [list(row) for row in model.cv_table],
        }


class TestPredict:
    def test_identity_weights_return_coordinates(self):
        from geosampler.learner import RidgeModel

        model = RidgeModel(
            weights=np.array([1.0, 0.0]), intercept=0.0, alpha=1.0, cv_table=((1.0, 0.0),)
        )
        X = np.eye(2)
        np.testing.assert_allclose(predict(model, X), [1.0, 0.0])

    def test_zero_weights_constant_intercept(self):
        from geosampler.learner import RidgeModel

        model = RidgeModel(
            weights=np.zeros(3), intercept=2.5, alpha=1.0, cv_table=((1.0, 0.0),)
        )
        np.testing.assert_allclose(predict(model, np.ones((4, 3))), 2.5)

    def test_dimension_mismatch(self):
        from geosampler.learner import RidgeModel

        model = RidgeModel(
            weights=np.zeros(3), intercept=0.0, alpha=1.0, cv_table=((1.0, 0.0),)
        )
        with pytest.raises(LearnerError, match="dimension"):
            predict(model, np.ones((4, 2)))


class TestMetrics:
    def test_r2_exact_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0

    def test_r2_mean_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, 2.0)) == 0.0

    def test_r2_hand_example(self):
        assert r2_score(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 2.0])) == 0.5

    def test_r2_never_exceeds_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.normal(size=10)
            pred = rng.normal(size=10)
            assert r2_score(y, pred) <= 1.0

    def test_r2_zero_variance(self):
        with pytest.raises(LearnerError, match="variance"):
            r2_score(np.ones(3), np.zeros(3))

    def test_spearman_identity_and_reversal(self):
        a = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert spearman_rho(a, a) == pytest.approx(1.0)
        assert spearman_rho(a, -a) == pytest.approx(-1.0)

    def test_spearman_hand_example(self):
        # d^2 formula: 1 - 6 * 2 / (4 * 15) = 0.8
        rho = spearman_rho(np.array([1.0, 2, 3, 4]), np.array([1.0, 3, 2, 4]))
        assert rho == pytest.approx(0.8, abs=1e-12)

    def test_spearman_tie_handling(self):
        rho = spearman_rho(np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert rho == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_spearman_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        base = spearman_rho(a, b)
        assert spearman_rho(np.exp(a), b) == pytest.approx(base, abs=1e-12)
        assert spearman_rho(a, 3 * b + 7) == pytest.approx(base, abs=1e-12)
        assert -1.0 <= base <= 1.0

    def test_spearman_constant_input(self):
        with pytest.raises(LearnerError, match="constant"):
            spearman_rho(np.ones(4), np.arange(4.0))

    def test_average_ranks(self):
        np.testing.assert_allclose(
            average_ranks(np.array([10.0, 20.0, 20.0, 30.0])), [1, 2.5, 2.5, 4]
        )


class TestKMeans:
    def test_single_group_is_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        res = kmeans_groups(X, G=1, seed=0)
        np.testing.assert_allclose(res.centroids[0], X.mean(axis=0))
        assert np.all(res.assignment == 0)

    def test_separated_blobs_recovered(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(20, 2)) + np.array([0.0, 0.0])
            b = rng.normal(size=(20, 2)) + np.array([10.0, 10.0])
            X = np.vstack([a, b])
            res = kmeans_groups(X, G=2, seed=seed)
            first, second = res.assignment[:20], res.assignment[20:]
            assert len(set(first.tolist())) == 1
            assert len(set(second.tolist())) == 1
            assert first[0] != second[0]

    def test_one_point_per_group_zero_inertia(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 2))
        res = kmeans_groups(X, G=6, seed=0)
        assert res.inertia == pytest.approx(0.0, abs=1e-20)

    def test_inertia_non_increasing_across_iterations(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 2))
        res = kmeans_groups(X, G=4, seed=3)
        trace = np.array(res.inertia_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_points_assigned_to_nearest_centroid(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3))
        res = kmeans_groups(X, G=5, seed=1)
        d2 = ((X[:, None, :] - res.centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(res.assignment, np.argmin(d2, axis=1))
        assert res.inertia == pytest.approx(
            float(d2[np.arange(50), res.assignment].sum())
        )

    def test_too_many_groups(self):
        with pytest.raises(LearnerError, match="G"):
            kmeans_groups(np.ones((3, 2)), G=4)


def tensor_lloyd(X, centroids, max_iters):
    """The (n, G, d) difference-tensor Lloyd kernel the GEMM kernel replaced."""
    n, G = X.shape[0], centroids.shape[0]
    assignment = np.full(n, -1, dtype=np.int64)
    trace = []
    for _ in range(max_iters):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = np.argmin(d2, axis=1)
        trace.append(float(d2[np.arange(n), new_assignment].sum()))
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for j in range(G):
            mask = assignment == j
            if mask.any():
                centroids[j] = X[mask].mean(axis=0)
            else:
                per_point = d2[np.arange(n), assignment]
                far = int(np.argmax(per_point))
                centroids[j] = X[far]
                assignment[far] = j
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assignment = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), assignment].sum())
    return centroids, assignment, inertia, trace


def lloyd_instances():
    """(X, G, init) triples: Gaussian rows at several offsets and scales,
    G = 1 and G = n, integer grids (exact distance ties), duplicate rows with
    G above the number of distinct rows and coincident initial centroids
    (empty clusters), d = 1, and blocks larger than one distance block."""
    rng = np.random.default_rng(2024)
    cases = []
    for t in range(60):
        kind = t % 6
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 7))
        if kind == 0:
            X = rng.normal(size=(n, d))
        elif kind == 1:
            X = rng.normal(size=(n, d)) * 1e3 + 1e4
        elif kind == 2:
            X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        elif kind == 3:
            distinct = rng.normal(size=(max(1, n // 5), d))
            X = distinct[rng.integers(0, len(distinct), size=n)]
        elif kind == 4:
            n = int(rng.integers(2100, 4500))
            X = rng.normal(size=(n, d))
        else:
            X = rng.normal(size=(n, 1 if t % 12 == 5 else d))
        G = (1, n, int(rng.integers(1, n + 1)))[t % 3] if kind != 4 else int(rng.integers(1, 12))
        init = _kmeanspp_init(X, G, np.random.default_rng(t))
        if kind == 3 and t % 2:
            init[:] = init[0]
        cases.append((X, G, init))
    # d = 1 instances where an empty cluster takes over a row in the second
    # pass, from a lower-index and from a higher-index cluster
    X = np.array([
        -1.9968525455564554, 16.375363034323144, 28.424343856708873, 13.654754331131398,
        19.452076898605625, -0.7473737681410125, 15.877681579998905, 0.742544893787117,
        15.542372863237924, 20.36483691002205, -19.874496588500623, 14.992989890743512,
        -0.1747672705282579, -0.8099234224580197, 0.8999148222950436, -3.760376782068964,
        2.4702606065880564, 19.390027307506326, 1.3410950297387187, -2.3322433988929254,
        -1.2670977321676375, 0.11602626492533084, -13.509050236443157, 19.339974960434787,
        -17.64255313424943, 4.707713497552895, 6.772147471884777, 0.33356578845289875,
        9.023157123002727, 2.7982288246501743, -5.415077868033102, 0.311182192551461,
    ])[:, None]
    init = np.array([
        0.5367052982668887, 22.430761469420364, -0.21746098424241778, 21.75691074069159,
        3.64196311842912, 10.24769283209919, -5.428436734739922, 16.97295767556713,
        14.90373920730948, -2.8445499251579673, -0.9425450579902162,
    ])[:, None]
    cases.append((X, len(init), init))
    X = np.array([
        4.568698212345979, 6.391076396144685, 7.666700695216485, 39.551446845742404,
        0.8370244197181053, 3.2351964807285256, 17.988257764708237, -1.0947063262496903,
        -1.3224317429230332, 32.25598606304624, 1.302326591156392, 2.036647642178696,
        19.09392461797766, -1.506954501804427, 20.31518135092269, 31.6558899199822,
    ])[:, None]
    init = np.array([
        4.0578798826791544, 7.635491764720214, 5.2823299877001375, -5.658701535706015,
        29.790084181802513, 32.38755922759607,
    ])[:, None]
    cases.append((X, len(init), init))
    return cases


class TestLloydKernel:
    def test_matches_difference_tensor_kernel(self):
        for X, G, init in lloyd_instances():
            ref = tensor_lloyd(X, init.copy(), 100)
            got = _lloyd(X, init.copy(), 100)
            np.testing.assert_array_equal(got[1], ref[1])
            np.testing.assert_array_equal(got[0], ref[0])
            assert got[2] == ref[2]
            # the trace sums the expanded distances: equal up to their rounding
            scale = float((X ** 2).sum()) + len(X) * float((ref[0] ** 2).sum(axis=1).max())
            np.testing.assert_allclose(got[3], ref[3], rtol=0, atol=1e-12 * scale)

    def test_near_ties_follow_the_direct_sums(self):
        # rows within 1e-9 of the bisector of two centroids far from the origin:
        # the expanded distances' rounding (~1e-8) picks the wrong side for
        # about half of them, the direct sums for none
        rng = np.random.default_rng(5)
        origin = np.array([1e4, -2e4, 5e3])
        e, f, g = np.array([0.6, 0.8, 0.0]), np.array([-0.8, 0.6, 0.0]), np.eye(3)[2]
        X = (origin + rng.normal(size=(1000, 1)) * f + rng.normal(size=(1000, 1)) * g
             + rng.uniform(-1e-9, 1e-9, size=(1000, 1)) * e)
        centroids = np.array([origin + e, origin - e])
        ref = tensor_lloyd(X, centroids.copy(), 0)
        got = _lloyd(X, centroids.copy(), 0)
        np.testing.assert_array_equal(got[1], ref[1])
        assert got[2] == ref[2]

    def test_kmeans_groups_matches_difference_tensor_restarts(self):
        X = np.random.default_rng(8).normal(size=(300, 5))
        rng = np.random.default_rng(3)
        best = None
        for _ in range(10):
            cand = tensor_lloyd(X, _kmeanspp_init(X, 6, rng), 100)
            if best is None or cand[2] < best[2]:
                best = cand
        res = kmeans_groups(X, 6, seed=3)
        np.testing.assert_array_equal(res.assignment, best[1])
        np.testing.assert_array_equal(res.centroids, best[0])
        assert res.inertia == best[2]


def temporaries_kmeanspp_init(X, G, rng):
    """k-means++ seeding as it was before it reused one (n, d) buffer: two
    fresh n x d temporaries per seeded centroid."""
    n = X.shape[0]
    centroids = np.empty((G, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    dist_sq = np.sum((X - centroids[0]) ** 2, axis=1)
    for j in range(1, G):
        total = dist_sq.sum()
        if total <= 0:
            centroids[j] = X[rng.integers(n)]
            continue
        probs = dist_sq / total
        centroids[j] = X[rng.choice(n, p=probs)]
        dist_sq = np.minimum(dist_sq, np.sum((X - centroids[j]) ** 2, axis=1))
    return centroids


class TestKMeansPlusPlus:
    @staticmethod
    def instances():
        """(X, G): Gaussian rows at several scales, d = 1, integer grids,
        duplicate rows, G = n and rows all equal (a zero total distance)."""
        rng = np.random.default_rng(77)
        cases = []
        for t in range(200):
            kind = t % 5
            n = int(rng.integers(1, 60))
            d = 1 if t % 7 == 0 else int(rng.integers(1, 9))
            if kind == 0:
                X = rng.normal(size=(n, d))
            elif kind == 1:
                X = rng.normal(size=(n, d)) * 1e3 + 1e4
            elif kind == 2:
                X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
            elif kind == 3:
                distinct = rng.normal(size=(max(1, n // 4), d))
                X = distinct[rng.integers(0, len(distinct), size=n)]
            else:
                X = np.tile(rng.normal(size=(1, d)), (n, 1))
            G = (n, 1, int(rng.integers(1, n + 1)))[t % 3]
            cases.append((X, G))
        return cases

    def test_matches_the_two_temporaries_seeding_bit_for_bit(self, monkeypatch):
        # one block holds every instance at the default size; blocks of 7 and
        # 16 rows split most of them, most with a partial last block
        kinds = {"d=1": 0, "G=n": 0, "zero total": 0, "partial last block": 0}
        for block_rows in (learner._BLOCK_ROWS, 7, 16):
            monkeypatch.setattr(learner, "_BLOCK_ROWS", block_rows)
            for t, (X, G) in enumerate(self.instances()):
                ref_rng, rng = np.random.default_rng(t), np.random.default_rng(t)
                ref = temporaries_kmeanspp_init(X, G, ref_rng)
                got = _kmeanspp_init(X, G, rng)
                assert got.tobytes() == ref.tobytes(), (block_rows, t)
                # the same draws were taken
                assert rng.bit_generator.state == ref_rng.bit_generator.state, (block_rows, t)
                kinds["d=1"] += X.shape[1] == 1
                kinds["G=n"] += G == len(X) > 1
                kinds["zero total"] += G > 1 and bool(np.all(X == X[0]))
                kinds["partial last block"] += len(X) > block_rows and len(X) % block_rows > 0
        assert min(kinds.values()) >= 10, kinds

    def test_seeding_holds_one_block_of_differences_not_a_copy_of_x(self):
        X = np.random.default_rng(3).normal(size=(20_000, 48))
        tracemalloc.start()
        try:
            _kmeanspp_init(X, 8, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 4


def full_source_sample(ds):
    clusters = np.flatnonzero(ds.cluster_is_source)
    return SampleState(
        initial=clusters,
        augment=(),
        labeled=np.concatenate([ds.rows_of_cluster(j) for j in clusters]),
        k=int(ds.cluster_sizes.max()),
        spent=0.0,
        initial_strata=frozenset(range(len(ds.stratum_ids))),
    )


class TestEvaluateSample:
    def test_full_sample_on_noiseless_linear_task(self):
        cfg = SynthConfig(
            strata_grid=(2, 2),
            clusters_per_stratum=5,
            points_per_cluster=(10, 16),
            feature_dim=4,
            coef_dispersion=0.0,
            noise=0.0,
            seed=21,
        )
        ds, _ = generate(cfg)
        r2 = evaluate_sample(ds, full_source_sample(ds), seed=0)
        assert r2 >= 0.99

    def test_single_cluster_scores_below_full_sample(self):
        cfg = SynthConfig(
            strata_grid=(3, 2),
            clusters_per_stratum=5,
            points_per_cluster=(12, 18),
            feature_dim=4,
            coef_dispersion=1.5,
            target_snr=20.0,
            seed=22,
        )
        ds, _ = generate(cfg)
        full = full_source_sample(ds)
        one = full.initial[0]
        single = SampleState(
            initial=[one],
            augment=(),
            labeled=ds.rows_of_cluster(one),
            k=full.k,
            spent=0.0,
            initial_strata=frozenset({int(ds.cluster_stratum[one])}),
        )
        assert evaluate_sample(ds, single, seed=0) < evaluate_sample(ds, full, seed=0)

    def test_deterministic_given_seed(self, synth_ds):
        state = full_source_sample(synth_ds)
        a = evaluate_sample(synth_ds, state, seed=3)
        b = evaluate_sample(synth_ds, state, seed=3)
        assert a == b

    def test_alpha_selection_invariant_to_sample_order(self, synth_ds):
        # labeled points are sorted before fitting, so the order in which the
        # sample accumulated them cannot change the evaluation
        state = full_source_sample(synth_ds)
        state2 = SampleState(
            initial=state.initial[::-1],
            augment=(),
            labeled=state.labeled[::-1],
            k=state.k,
            spent=0.0,
            initial_strata=state.initial_strata,
        )
        assert evaluate_sample(synth_ds, state, seed=1) == evaluate_sample(
            synth_ds, state2, seed=1
        )

    def test_empty_sample_rejected(self, synth_ds):
        state = SampleState(
            initial=(),
            augment=(),
            labeled=(),
            k=5,
            spent=0.0,
            initial_strata=frozenset(),
        )
        with pytest.raises(LearnerError, match="empty"):
            evaluate_sample(synth_ds, state, seed=0)
