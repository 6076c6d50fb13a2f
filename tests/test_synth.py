import gc
import json
import tracemalloc

import numpy as np
import pytest

from geosampler import synth as synth_module
from geosampler.data import build_dataset, datasets_equal, load_dataset, save_dataset
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


@pytest.mark.parametrize("feature_dim", [1, 7, 48])
def test_labels_are_the_per_row_dot_bit_for_bit(monkeypatch, feature_dim):
    # the signal w_s @ x_i is computed for a block of rows at once; with no
    # label noise the labels are the signal, each the per-row vector dot
    monkeypatch.setattr(synth_module, "_NOISE_BLOCK_ROWS", 37)
    cfg = SynthConfig(strata_grid=(3, 2), clusters_per_stratum=3, points_per_cluster=(5, 20),
                      feature_dim=feature_dim, coef_dispersion=1.0, noise=0.0, seed=4)
    ds, truth = generate(cfg)
    assert len(ds.stratum_ids) == 6 and ds.n_points > 2 * 37
    w = [truth.coefficients[ds.stratum_ids[ds.cluster_stratum[j]]] for j in ds.point_cluster]
    expect = np.array([w_s @ x for w_s, x in zip(w, ds.features)])
    assert ds.labels.tobytes() == expect.tobytes()


def _reference_generate(cfg: SynthConfig, block_rows: int):
    """``generate`` as it was before it built its dataset from row numbers:
    a fresh ``rng.normal`` draw per noise block, the signal from a gather of
    w rows per block, and ``build_dataset`` over a str cluster id per point."""
    rng = np.random.default_rng(cfg.seed)
    rx, ry = cfg.strata_grid
    n_strata = rx * ry
    d = cfg.feature_dim
    freq = rng.normal(0.0, 1.5, size=(d, 2))
    phase = rng.uniform(0.0, 2 * np.pi, size=d)
    w_base = rng.normal(0.0, 1.0, size=d)
    w_by_stratum = {}
    sid_width = len(str(n_strata - 1)) if n_strata > 1 else 1
    cluster_coords = []
    for gx in range(rx):
        for gy in range(ry):
            sid = f"s{len(w_by_stratum):0{sid_width}d}"
            w_by_stratum[sid] = w_base + cfg.coef_dispersion * rng.normal(size=d)
            for _ in range(cfg.clusters_per_stratum):
                center = np.array([gx, gy]) + rng.uniform(0.1, 0.9, size=2)
                n_pts = int(
                    rng.integers(cfg.points_per_cluster[0], cfg.points_per_cluster[1] + 1)
                )
                cluster_coords.append(center + rng.uniform(-0.08, 0.08, size=(n_pts, 2)))
    coords = np.concatenate(cluster_coords)
    sizes = [len(c) for c in cluster_coords]
    n, m = len(coords), len(cluster_coords)
    point_ids = [f"p{i:0{len(str(n - 1))}d}" for i in range(n)]
    cluster_ids = [f"c{j:0{len(str(m - 1))}d}" for j in range(m)]
    stratum_ids = list(w_by_stratum)
    cluster_stratum = {
        cid: stratum_ids[j // cfg.clusters_per_stratum] for j, cid in enumerate(cluster_ids)
    }
    point_cluster = [cid for cid, size in zip(cluster_ids, sizes) for _ in range(size)]
    point_stratum = np.repeat(np.arange(m) // cfg.clusters_per_stratum, sizes)
    features = coords @ freq.T
    features += phase
    np.sin(features, out=features)
    features *= cfg.feature_scale
    w = np.array(list(w_by_stratum.values()))
    signal = np.empty(n)
    for lo in range(0, n, block_rows):
        block = features[lo:lo + block_rows]
        noise = rng.normal(size=block.shape)
        noise *= cfg.feature_noise
        block += noise
        w_rows = w[point_stratum[lo:lo + len(block)], :, None]
        signal[lo:lo + len(block)] = np.matmul(block[:, None, :], w_rows)[:, 0, 0]
    signal_var = float(np.var(signal))
    if cfg.target_snr is not None:
        sigma = float(np.sqrt(signal_var / cfg.target_snr)) if signal_var > 0 else 0.0
    else:
        sigma = cfg.noise
    labels = signal + sigma * rng.normal(size=n)
    ds = build_dataset(point_ids=point_ids, coords=coords, features=features, labels=labels,
                       point_cluster=point_cluster, cluster_stratum=cluster_stratum,
                       split_seed=int(rng.integers(2**31 - 1)), test_fraction=cfg.test_fraction)
    return ds, w_by_stratum, sigma, signal_var


@pytest.mark.parametrize("cfg", [
    SynthConfig(seed=3),
    SynthConfig(feature_dim=1, coef_dispersion=0.7, seed=5),
    SynthConfig(strata_grid=(4, 3), clusters_per_stratum=5, feature_dim=7,
                coef_dispersion=1.2, target_snr=15, seed=6),
    SynthConfig(strata_grid=(6, 5), clusters_per_stratum=40, points_per_cluster=(1, 4),
                feature_dim=3, coef_dispersion=0.5, seed=7),
    SynthConfig(strata_grid=(1, 1), clusters_per_stratum=1, points_per_cluster=(1, 1),
                feature_dim=2, test_fraction=0.0, seed=8),
    SynthConfig(strata_grid=(1, 1), clusters_per_stratum=9, points_per_cluster=(20, 40),
                coef_dispersion=2.0, target_snr=3, seed=9),
], ids=["default", "dim-1", "12-strata", "1200-clusters", "one-point", "one-stratum"])
def test_generate_matches_the_string_id_path_bit_for_bit(monkeypatch, cfg):
    # one noise block of the default size covers these populations; 37 rows
    # split every one of them but the single point into several blocks
    for block_rows in (synth_module._NOISE_BLOCK_ROWS, 37):
        monkeypatch.setattr(synth_module, "_NOISE_BLOCK_ROWS", block_rows)
        ds, truth = generate(cfg)
        ref, coefficients, sigma, signal_var = _reference_generate(cfg, block_rows)
        assert (ds.point_ids, ds.cluster_ids, ds.stratum_ids) == (
            ref.point_ids, ref.cluster_ids, ref.stratum_ids)
        for name in ("coords", "features", "labels", "point_cluster", "cluster_stratum"):
            got, want = getattr(ds, name), getattr(ref, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        assert (ds.split_seed, ds.test_fraction) == (ref.split_seed, ref.test_fraction)
        assert list(truth.coefficients) == list(coefficients)
        for sid, w_s in coefficients.items():
            assert truth.coefficients[sid].tobytes() == w_s.tobytes()
        assert (truth.noise_sigma, truth.signal_variance) == (sigma, signal_var)
    if cfg.clusters_per_stratum == 40:
        assert ds.n_clusters == 1200 and len(ds.stratum_ids) == 30 and ds.n_points > 37


def _traced(fn, *args):
    """``fn(*args)``, the traced memory its result holds, and how far the
    traced peak during the call rose above that."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak - held


def test_generate_and_load_hold_little_beyond_the_dataset(tmp_path):
    # 30k points shaped like the benchmark's large population (d = 48). At
    # its peak generate holds one block of feature noise beyond the dataset,
    # not a str cluster id per point; load_dataset holds the sorted ids, not
    # the points table beside the features. Measured: 0.24 and 0.15 of what
    # the dataset holds, against 0.68 and 0.27 with those copies
    cfg = SynthConfig(strata_grid=(5, 4), clusters_per_stratum=50, points_per_cluster=(25, 35),
                      feature_dim=48, coef_dispersion=1.2, target_snr=15, seed=42)
    (ds, _), held, extra = _traced(generate, cfg)
    assert ds.n_points > 29_000
    assert extra < 0.40 * held, (extra, held)
    save_dataset(ds, tmp_path / "b", features_format="bin")
    del ds
    ds, held, extra = _traced(load_dataset, tmp_path / "b")
    assert ds.n_points > 29_000
    assert extra < 0.21 * held, (extra, held)


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


@pytest.mark.parametrize("field", [
    "coef_dispersion", "noise", "feature_noise", "feature_scale", "target_snr",
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_float_rejected(field, value):
    # NaN passes every `< 0` check, and NaN labels fail only later, and obscurely
    with pytest.raises(SynthError, match=f"^{field} must be finite"):
        SynthConfig(**{field: value})


def test_split_leaving_no_train_point_is_rejected():
    # test_fraction 0.999 puts all 48 clusters of the default grid on the test side
    with pytest.raises(SynthError, match="no source cluster"):
        generate(SynthConfig(seed=1, test_fraction=0.999))
