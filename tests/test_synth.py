import json

import numpy as np
import pytest

from geosampler.data import datasets_equal, load_dataset, save_dataset
from geosampler.learner import evaluate_sample
from geosampler.synth import SynthConfig, SynthError, generate, save_truth

from test_learner import full_source_sample


def test_same_seed_gives_identical_dataset():
    cfg = SynthConfig(seed=17)
    a, ta = generate(cfg)
    b, tb = generate(cfg)
    assert datasets_equal(a, b)
    for sid in ta.coefficients:
        np.testing.assert_array_equal(ta.coefficients[sid], tb.coefficients[sid])


def test_generated_dataset_passes_validation_and_round_trips(tmp_path):
    cfg = SynthConfig(strata_grid=(2, 3), clusters_per_stratum=4, seed=8)
    ds, truth = generate(cfg)   # Dataset construction validates
    assert len(ds.stratum_ids) == 6
    assert ds.n_clusters == 24
    save_dataset(ds, tmp_path / "b")
    save_truth(truth, tmp_path / "b")
    assert datasets_equal(ds, load_dataset(tmp_path / "b"))
    doc = json.loads((tmp_path / "b" / "truth.json").read_text())
    assert set(doc["coefficients"]) == set(ds.stratum_ids)


def test_snr_matches_target_within_ten_percent():
    cfg = SynthConfig(
        strata_grid=(3, 3),
        clusters_per_stratum=12,
        points_per_cluster=(90, 110),
        feature_dim=5,
        coef_dispersion=0.5,
        target_snr=5.0,
        seed=9,
    )
    ds, truth = generate(cfg)
    assert ds.n_points >= 10_000
    # empirical noise variance from the generator residuals
    sid_of = {cid: ds.stratum_ids[s] for cid, s in zip(ds.cluster_ids, ds.cluster_stratum)}
    signal = np.array([
        truth.coefficients[sid_of[ds.cluster_ids[ds.point_cluster[i]]]] @ ds.features[i]
        for i in range(ds.n_points)
    ])
    noise_var = float(np.var(ds.labels - signal))
    snr = float(np.var(signal)) / noise_var
    assert snr == pytest.approx(5.0, rel=0.10)


def test_homogeneous_noiseless_task_is_learnable():
    cfg = SynthConfig(
        strata_grid=(2, 2),
        clusters_per_stratum=5,
        points_per_cluster=(10, 16),
        coef_dispersion=0.0,
        noise=0.0,
        seed=10,
    )
    ds, _ = generate(cfg)
    assert evaluate_sample(ds, full_source_sample(ds), seed=0) >= 0.99


def test_heterogeneity_penalizes_concentrated_training():
    # a model trained inside one stratum transfers worse than one trained on
    # a same-size spatially spread sample, for most seeds
    from geosampler.data import SampleState

    wins = 0
    for seed in range(10):
        cfg = SynthConfig(
            strata_grid=(3, 2),
            clusters_per_stratum=8,
            points_per_cluster=(14, 20),
            feature_dim=4,
            coef_dispersion=1.5,
            target_snr=25.0,
            seed=100 + seed,
        )
        ds, _ = generate(cfg)
        rng = np.random.default_rng(seed)

        source = [j for j in range(ds.n_clusters) if ds.cluster_is_source[j]]
        by_stratum: dict[str, list[int]] = {}
        for j in source:
            by_stratum.setdefault(ds.stratum_ids[ds.cluster_stratum[j]], []).append(j)
        sid = max(by_stratum, key=lambda s: len(by_stratum[s]))
        concentrated = by_stratum[sid][:5]
        spread = [int(rng.choice(by_stratum[s])) for s in sorted(by_stratum)][:5]

        def state_of(idx):
            initial = np.sort(idx)
            return SampleState(
                initial=initial,
                augment=(),
                labeled=np.concatenate([ds.rows_of_cluster(j)[:10] for j in initial]),
                k=10,
                spent=0.0,
                initial_strata=frozenset(ds.stratum_ids[ds.cluster_stratum[j]] for j in idx),
            )

        r_conc = evaluate_sample(ds, state_of(concentrated), seed=seed)
        r_spread = evaluate_sample(ds, state_of(spread), seed=seed)
        wins += int(r_spread > r_conc)
    assert wins >= 8


def test_invalid_configs_rejected():
    with pytest.raises(SynthError):
        SynthConfig(strata_grid=(0, 2))
    with pytest.raises(SynthError):
        SynthConfig(points_per_cluster=(5, 3))
    with pytest.raises(SynthError):
        SynthConfig(feature_dim=0)
    with pytest.raises(SynthError):
        SynthConfig(target_snr=0.0)
